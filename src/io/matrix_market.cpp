#include "io/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/parallel.hpp"

namespace mclx::io {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("matrix market: " + what);
}

/// Most entries reserved up front on the header's word alone.
constexpr std::uint64_t kMaxTrustedReserve = std::uint64_t{1} << 20;

}  // namespace

MmTriples read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) fail("empty input");

  std::istringstream banner(line);
  std::string tag, object, format, field, symmetry;
  banner >> tag >> object >> format >> field >> symmetry;
  if (lower(tag) != "%%matrixmarket") fail("missing %%MatrixMarket banner");
  if (lower(object) != "matrix") fail("unsupported object: " + object);
  if (lower(format) != "coordinate") fail("unsupported format: " + format);
  field = lower(field);
  symmetry = lower(symmetry);
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer")
    fail("unsupported field: " + field);
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general")
    fail("unsupported symmetry: " + symmetry);

  // Skip comments and blank lines up to the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  vidx_t nrows = 0, ncols = 0;
  std::uint64_t entries = 0;
  if (!(size_line >> nrows >> ncols >> entries)) fail("bad size line");
  if (nrows < 0 || ncols < 0) fail("negative dimensions");

  // Entry lines are independent, so parsing chunks over them on the
  // shared pool: the stream is drained sequentially (I/O stays ordered),
  // each chunk parses into a local triple buffer, and buffers concatenate
  // in chunk order — the exact push sequence of the sequential loop,
  // symmetric mirrors included, so sort_and_combine sees identical input
  // at any thread count. Lanes must not throw (they cross the pool
  // boundary), so parse errors are collected per chunk and the earliest
  // one is rethrown afterwards. The header's entry count is untrusted
  // until that many lines have actually been read, so the buffer grows
  // with the input instead of being sized from the claim.
  std::vector<std::string> entry_lines;
  entry_lines.reserve(
      static_cast<std::size_t>(std::min(entries, kMaxTrustedReserve)));
  for (std::uint64_t e = 0; e < entries; ++e) {
    if (!std::getline(in, entry_lines.emplace_back()))
      fail("unexpected end of entries");
  }

  using TripleT = MmTriples::triple_type;
  const int chunks = par::plan_chunks(std::uint64_t{0}, entries);
  std::vector<std::vector<TripleT>> parsed(
      static_cast<std::size_t>(std::max(chunks, 0)));
  std::vector<std::string> errors(parsed.size());
  par::parallel_chunks(
      std::uint64_t{0}, entries,
      [&](std::uint64_t e0, std::uint64_t e1, int c_idx) {
        auto& out = parsed[static_cast<std::size_t>(c_idx)];
        out.reserve(static_cast<std::size_t>(symmetric ? 2 * (e1 - e0)
                                                       : (e1 - e0)));
        for (std::uint64_t e = e0; e < e1; ++e) {
          const std::string& text = entry_lines[e];
          std::istringstream entry(text);
          vidx_t r = 0, c = 0;
          val_t v = 1.0;
          if (!(entry >> r >> c)) {
            errors[static_cast<std::size_t>(c_idx)] = "bad entry line: " + text;
            return;
          }
          if (!pattern && !(entry >> v)) {
            errors[static_cast<std::size_t>(c_idx)] = "missing value: " + text;
            return;
          }
          if (r < 1 || r > nrows || c < 1 || c > ncols) {
            errors[static_cast<std::size_t>(c_idx)] =
                "entry out of bounds: " + text;
            return;
          }
          out.push_back({r - 1, c - 1, v});
          if (symmetric && r != c) out.push_back({c - 1, r - 1, v});
        }
      });
  for (const auto& err : errors) {
    if (!err.empty()) fail(err);
  }

  MmTriples m(nrows, ncols);
  m.reserve(symmetric ? 2 * entries : entries);
  for (auto& chunk : parsed) {
    m.data().insert(m.data().end(), chunk.begin(), chunk.end());
  }
  m.sort_and_combine();
  return m;
}

MmTriples read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const MmTriples& m,
                         const std::string& comment) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  if (!comment.empty()) out << "% " << comment << '\n';
  out << m.nrows() << ' ' << m.ncols() << ' ' << m.nnz() << '\n';
  out.precision(17);
  for (const auto& t : m) {
    out << t.row + 1 << ' ' << t.col + 1 << ' ' << t.val << '\n';
  }
}

void write_matrix_market_file(const std::string& path, const MmTriples& m,
                              const std::string& comment) {
  std::ofstream out(path);
  if (!out) fail("cannot open for write: " + path);
  write_matrix_market(out, m, comment);
}

}  // namespace mclx::io
