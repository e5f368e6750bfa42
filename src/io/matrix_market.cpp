#include "io/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
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

/// Entry lines are read in blocks of this size. Every buffer the reader
/// frees stays this small on generated inputs: glibc raises its mmap
/// threshold to the largest mmapped chunk freed, and a larger threshold
/// lets the threads of a batch keep more memory in their arenas.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

/// The blanks that stream extraction skips in the classic locale ('\n'
/// ends the line before a field sees it).
bool is_blank(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\v' || ch == '\f';
}

bool is_exponent(char ch) { return ch == 'e' || ch == 'E'; }

/// Skips blanks, then one '+' that no other sign follows: extraction
/// accepts "+1", from_chars only '-'.
const char* number_start(const char* p, const char* end) {
  while (p < end && is_blank(*p)) ++p;
  if (end - p >= 2 && p[0] == '+' && p[1] != '+' && p[1] != '-') ++p;
  return p;
}

/// An index ends at a blank or at the end of the line. Returns the end
/// of the field, or nullptr when it is not one.
const char* parse_index(const char* p, const char* end, vidx_t& out) {
  p = number_start(p, end);
  const auto [q, ec] = std::from_chars(p, end, out);
  if (ec != std::errc{} || (q < end && !is_blank(*q))) return nullptr;
  return q;
}

/// A finite value, read as extraction reads it where from_chars alone
/// differs: an underflow keeps strtod's ±0 or subnormal; an overflow, a
/// NaN or an infinity fails; and so does an exponent without digits
/// ("0.5e", "1e+"), which from_chars would leave as trailing text. An
/// 'e' after a complete exponent is trailing text to both.
bool parse_value(const char* p, const char* end, val_t& out) {
  p = number_start(p, end);
  const auto [q, ec] = std::from_chars(p, end, out);
  if (ec == std::errc::result_out_of_range) {
    const std::string field(p, q);
    char* parsed = nullptr;
    out = std::strtod(field.c_str(), &parsed);
    if (parsed != field.c_str() + field.size()) return false;
  } else if (ec != std::errc{}) {
    return false;
  }
  if (!std::isfinite(out)) return false;
  return q == end || !is_exponent(*q) || std::any_of(p, q, is_exponent);
}

/// What the header says about every entry line.
struct Shape {
  vidx_t nrows = 0;
  vidx_t ncols = 0;
  bool pattern = false;
  bool symmetric = false;
};

/// Parses the entry line [p, end). Returns nullptr, or the name of the
/// error that rejects the line.
const char* parse_entry(const char* p, const char* end, const Shape& shape,
                        vidx_t& r, vidx_t& c, val_t& v) {
  p = parse_index(p, end, r);
  if (p) p = parse_index(p, end, c);
  if (!p) return "bad entry line: ";
  v = 1.0;
  if (!shape.pattern && !parse_value(p, end, v)) return "missing value: ";
  if (r < 1 || r > shape.nrows || c < 1 || c > shape.ncols)
    return "entry out of bounds: ";
  return nullptr;
}

/// Appends the triples of the next `entries` lines of `in` to `out`, in
/// line order, each symmetric mirror right after its entry.
///
/// The lines come from the stream buffer in blocks. Each block's
/// complete lines split into one contiguous range per lane, and each
/// lane writes its triples straight into `out`, at the slot its first
/// line would take if every line before it gave the most triples a line
/// can give; the ranges then close up in chunk order. That is the
/// sequential loop's exact push sequence, so the result is the same at
/// any thread count. Lanes must not throw (they cross the pool
/// boundary), so each stops at its first bad line and the earliest one
/// is raised after the block. Every buffer is freed on return.
void read_entries(std::streambuf& in, std::uint64_t entries,
                  const Shape& shape, std::vector<MmTriples::triple_type>& out) {
  const std::size_t per_line = shape.symmetric ? 2 : 1;
  std::size_t capacity = kBlockBytes;
  auto block = std::make_unique_for_overwrite<char[]>(capacity);
  std::size_t filled = 0;  // an unfinished line, then what was read after it
  std::vector<std::size_t> ends;  // each complete line's end in the block
  struct Lane {
    std::size_t first = 0;  // the lane's first line in the block
    std::size_t kept = 0;   // triples it wrote
    std::size_t bad = 0;    // its bad line, when `error` is set
    const char* error = nullptr;
  };
  std::vector<Lane> lanes;
  for (std::uint64_t done = 0; done < entries;) {
    if (filled == capacity) {
      // One line fills the block: double it to hold the line.
      auto larger = std::make_unique_for_overwrite<char[]>(2 * capacity);
      std::memcpy(larger.get(), block.get(), filled);
      block = std::move(larger);
      capacity *= 2;
    }
    const std::streamsize got =
        in.sgetn(block.get() + filled,
                 static_cast<std::streamsize>(capacity - filled));
    const bool eof = got <= 0;
    if (!eof) filled += static_cast<std::size_t>(got);

    // Lines after the claimed count are never parsed.
    const char* const base = block.get();
    const std::uint64_t wanted = entries - done;
    ends.clear();
    for (const char* p = base; ends.size() < wanted;) {
      const auto* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(base + filled - p)));
      if (!nl) break;
      ends.push_back(static_cast<std::size_t>(nl - base));
      p = nl + 1;
    }
    std::size_t used = ends.empty() ? 0 : ends.back() + 1;
    if (eof && ends.size() < wanted && used < filled) {
      ends.push_back(filled);  // the last line, without a '\n'
      used = filled;
    }
    if (ends.empty()) {
      if (eof) fail("unexpected end of entries");
      continue;
    }
    const auto line_begin = [&](std::size_t i) {
      return base + (i == 0 ? 0 : ends[i - 1] + 1);
    };

    const std::size_t lines = ends.size();
    const std::size_t start = out.size();
    out.resize(start + per_line * lines);
    lanes.assign(
        static_cast<std::size_t>(par::plan_chunks(std::size_t{0}, lines)),
        Lane{});
    par::parallel_chunks(
        std::size_t{0}, lines, [&](std::size_t lo, std::size_t hi, int c_idx) {
          Lane& lane = lanes[static_cast<std::size_t>(c_idx)];
          lane.first = lo;
          auto* const first = out.data() + start + per_line * lo;
          auto* dst = first;
          for (std::size_t i = lo; i < hi; ++i) {
            vidx_t r = 0, c = 0;
            val_t v = 1.0;
            lane.error = parse_entry(line_begin(i), base + ends[i], shape, r,
                                     c, v);
            if (lane.error) {
              lane.bad = i;
              break;
            }
            *dst++ = {r - 1, c - 1, v};
            if (shape.symmetric && r != c) *dst++ = {c - 1, r - 1, v};
          }
          lane.kept = static_cast<std::size_t>(dst - first);
        });
    std::size_t size = start;
    for (const Lane& lane : lanes) {
      if (lane.error) {
        fail(lane.error +
             std::string(line_begin(lane.bad), base + ends[lane.bad]));
      }
      const auto from = out.begin() + static_cast<std::ptrdiff_t>(
                                          start + per_line * lane.first);
      const auto to = out.begin() + static_cast<std::ptrdiff_t>(size);
      if (from != to) {
        std::copy(from, from + static_cast<std::ptrdiff_t>(lane.kept), to);
      }
      size += lane.kept;
    }
    out.resize(size);
    done += lines;

    // Keep the unfinished line for the next block.
    std::memmove(block.get(), base + used, filled - used);
    filled -= used;
  }
}

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
  Shape shape;
  shape.pattern = field == "pattern";
  if (!shape.pattern && field != "real" && field != "integer")
    fail("unsupported field: " + field);
  shape.symmetric = symmetry == "symmetric";
  if (!shape.symmetric && symmetry != "general")
    fail("unsupported symmetry: " + symmetry);

  // Skip comments and blank lines up to the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  // Read signed: extraction into an unsigned type would wrap "-5".
  std::int64_t claimed = 0;
  if (!(size_line >> shape.nrows >> shape.ncols >> claimed) || claimed < 0)
    fail("bad size line");
  if (shape.nrows < 0 || shape.ncols < 0) fail("negative dimensions");
  const auto entries = static_cast<std::uint64_t>(claimed);

  // The header's entry count is untrusted until that many lines have
  // been read: the output grows with the input instead of being sized
  // from the claim.
  MmTriples m(shape.nrows, shape.ncols);
  m.reserve((shape.symmetric ? 2 : 1) *
            static_cast<std::size_t>(std::min(entries, kMaxTrustedReserve)));
  read_entries(*in.rdbuf(), entries, shape, m.data());
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
