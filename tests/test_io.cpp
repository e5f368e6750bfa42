// Matrix Market IO: round trips, header variants (pattern / integer /
// symmetric), the entry-line grammar line by line, and malformed-input
// rejection.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "io/matrix_market.hpp"
#include "util/rng.hpp"

namespace {

using namespace mclx;
using io::MmTriples;

MmTriples random_matrix(vidx_t n, int entries, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  MmTriples t(n, n);
  for (int e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(n)),
                     static_cast<vidx_t>(rng.bounded(n)), rng.uniform_pos());
  }
  t.sort_and_combine();
  return t;
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  const MmTriples m = random_matrix(40, 200, 1);
  std::stringstream ss;
  io::write_matrix_market(ss, m, "round trip test");
  const MmTriples back = io::read_matrix_market(ss);
  EXPECT_EQ(back.nrows(), m.nrows());
  EXPECT_EQ(back.ncols(), m.ncols());
  ASSERT_EQ(back.nnz(), m.nnz());
  for (std::size_t i = 0; i < m.nnz(); ++i) {
    EXPECT_EQ(back.data()[i].row, m.data()[i].row);
    EXPECT_EQ(back.data()[i].col, m.data()[i].col);
    EXPECT_DOUBLE_EQ(back.data()[i].val, m.data()[i].val);
  }
}

TEST(MatrixMarket, ReadsPatternAsOnes) {
  std::stringstream ss("%%MatrixMarket matrix coordinate pattern general\n"
                       "3 3 2\n1 2\n3 1\n");
  const MmTriples m = io::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 2u);
  for (const auto& t : m) EXPECT_DOUBLE_EQ(t.val, 1.0);
}

TEST(MatrixMarket, ExpandsSymmetric) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real symmetric\n"
                       "3 3 2\n2 1 5.0\n3 3 7.0\n");
  const MmTriples m = io::read_matrix_market(ss);
  // Off-diagonal mirrored; diagonal not duplicated.
  EXPECT_EQ(m.nnz(), 3u);
}

TEST(MatrixMarket, ReadsIntegerField) {
  std::stringstream ss("%%MatrixMarket matrix coordinate integer general\n"
                       "2 2 1\n1 1 3\n");
  const MmTriples m = io::read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(m.data()[0].val, 3.0);
}

TEST(MatrixMarket, SkipsComments) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real general\n"
                       "% a comment\n% another\n"
                       "2 2 1\n2 2 4.5\n");
  const MmTriples m = io::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.data()[0].val, 4.5);
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::stringstream ss("2 2 1\n1 1 1.0\n");
  EXPECT_THROW(io::read_matrix_market(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsUnsupportedFormat) {
  std::stringstream ss("%%MatrixMarket matrix array real general\n");
  EXPECT_THROW(io::read_matrix_market(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsUnsupportedObjectFieldAndSymmetry) {
  const auto error_of = [](const std::string& banner) {
    std::stringstream ss(banner + "\n2 2 1\n1 1 1.0\n");
    try {
      (void)io::read_matrix_market(ss);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error_of("%%MatrixMarket vector coordinate real general"),
            "matrix market: unsupported object: vector");
  EXPECT_EQ(error_of("%%MatrixMarket matrix coordinate complex general"),
            "matrix market: unsupported field: complex");
  EXPECT_EQ(error_of("%%MatrixMarket matrix coordinate real hermitian"),
            "matrix market: unsupported symmetry: hermitian");
  EXPECT_EQ(error_of("%%MatrixMarket matrix coordinate real skew-symmetric"),
            "matrix market: unsupported symmetry: skew-symmetric");
  // The banner words are case-insensitive.
  EXPECT_EQ(error_of("%%MATRIXMARKET Matrix Coordinate REAL General"),
            "no error");
}

TEST(MatrixMarket, LineLongerThanAReadBlockParses) {
  // Trailing text after the value is ignored, so one entry line can be
  // longer than the reader's 1 MiB block; the block grows to hold it and
  // the lines on either side still read in order.
  std::string text =
      "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n";
  text += "1 2 0.5 ";
  text.append(std::size_t{3} << 19, 'x');  // 1.5 MiB
  text += "\n3 1 0.25\n";
  std::stringstream ss(text);
  const MmTriples m = io::read_matrix_market(ss);
  ASSERT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.data()[0].row, 0);
  EXPECT_EQ(m.data()[0].col, 0);
  EXPECT_EQ(m.data()[1].row, 2);
  EXPECT_EQ(m.data()[1].col, 0);
  EXPECT_EQ(m.data()[1].val, 0.25);
  EXPECT_EQ(m.data()[2].row, 0);
  EXPECT_EQ(m.data()[2].col, 1);
  EXPECT_EQ(m.data()[2].val, 0.5);
}

TEST(MatrixMarket, RejectsOutOfBoundsEntry) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real general\n"
                       "2 2 1\n3 1 1.0\n");
  EXPECT_THROW(io::read_matrix_market(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real general\n"
                       "2 2 3\n1 1 1.0\n");
  EXPECT_THROW(io::read_matrix_market(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsMissingValue) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real general\n"
                       "2 2 1\n1 1\n");
  EXPECT_THROW(io::read_matrix_market(ss), std::runtime_error);
}

TEST(MatrixMarket, FileRoundTrip) {
  const MmTriples m = random_matrix(10, 30, 2);
  const std::string path = testing::TempDir() + "/mclx_io_test.mtx";
  io::write_matrix_market_file(path, m);
  const MmTriples back = io::read_matrix_market_file(path);
  EXPECT_EQ(back.nnz(), m.nnz());
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(io::read_matrix_market_file("/nonexistent/nope.mtx"),
               std::runtime_error);
}

// One entry line of a 3x3 file each: either the triple it reads as
// (0-based, value compared by bits), or the error it raises, which must
// quote the line. Each row is also the answer of a reader built on
// istream extraction, except where an index runs into text: extraction
// read "1 1.5 0.5" as (1, 1, 0.5) and the pattern line "1 2x" as (1, 2).
struct EntryLine {
  std::string line;
  const char* error = nullptr;  // nullptr: the line reads as the triple
  vidx_t row = 0;
  vidx_t col = 0;
  double val = 0.0;
};

MmTriples read_one_entry(const std::string& field, const std::string& line) {
  std::istringstream in("%%MatrixMarket matrix coordinate " + field +
                        " general\n3 3 1\n" + line + "\n");
  return io::read_matrix_market(in);
}

void expect_entry(const std::string& field, const EntryLine& c) {
  SCOPED_TRACE("entry line \"" + c.line + "\"");
  if (c.error) {
    try {
      (void)read_one_entry(field, c.line);
      ADD_FAILURE() << "parsed without error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(c.error) + ": " +
                                           c.line),
                std::string::npos)
          << e.what();
    }
    return;
  }
  const MmTriples m = read_one_entry(field, c.line);
  ASSERT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.data()[0].row, c.row);
  EXPECT_EQ(m.data()[0].col, c.col);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.data()[0].val),
            std::bit_cast<std::uint64_t>(c.val))
      << m.data()[0].val;
}

TEST(MatrixMarket, EntryLineCorpus) {
  constexpr double kMinSubnormal = std::numeric_limits<double>::denorm_min();
  const EntryLine cases[] = {
      // A leading '+' that no other sign follows.
      {"+1 1 0.5", nullptr, 0, 0, 0.5},
      {"1 +2 0.5", nullptr, 0, 1, 0.5},
      {"1 1 +0.5", nullptr, 0, 0, 0.5},
      {"+-1 1 0.5", "bad entry line"},
      {"1 1 +-0.5", "missing value"},
      {"1 1 ++0.5", "missing value"},
      // Underflow reads as ±0, or as the subnormal it rounds to.
      {"1 1 1e-400", nullptr, 0, 0, 0.0},
      {"1 1 -1e-400", nullptr, 0, 0, -0.0},
      {"1 1 2.47e-324", nullptr, 0, 0, 0.0},
      {"1 1 4.9e-324", nullptr, 0, 0, kMinSubnormal},
      {"1 1 2.4703282292062328e-324", nullptr, 0, 0, kMinSubnormal},
      {"1 1 1e-320", nullptr, 0, 0, 1e-320},
      {"1 1 2.2250738585072011e-308", nullptr, 0, 0, 2.2250738585072011e-308},
      // Overflow, NaN and infinity fail.
      {"1 1 1e308", nullptr, 0, 0, 1e308},
      {"1 1 1.8e308", "missing value"},
      {"1 1 -1e400", "missing value"},
      {"1 1 nan", "missing value"},
      {"1 1 NaN", "missing value"},
      {"1 1 inf", "missing value"},
      {"1 1 -inf", "missing value"},
      {"1 1 infinity", "missing value"},
      // An exponent needs digits; an 'e' after a complete one is
      // trailing text.
      {"1 1 0.5e", "missing value"},
      {"1 1 1e+", "missing value"},
      {"1 1 1E-", "missing value"},
      {"1 1 5.e", "missing value"},
      {"1 1 5e3e", nullptr, 0, 0, 5000.0},
      {"1 1 5E+3x", nullptr, 0, 0, 5000.0},
      // An index ends at a blank: the one deliberate tightening.
      {"1 1.5 0.5", "bad entry line"},
      {"1.5 1 0.5", "bad entry line"},
      {"1e0 1 0.5", "bad entry line"},
      // The value's digits end where extraction's do.
      {"1 1 0x10", nullptr, 0, 0, 0.0},
      {"1 1 .5", nullptr, 0, 0, 0.5},
      {"1 1 5.", nullptr, 0, 0, 5.0},
      {"1 1 0.5.3", nullptr, 0, 0, 0.5},
      {"1 1 0.5abc", nullptr, 0, 0, 0.5},
      {"1 1 0.5 trailing words", nullptr, 0, 0, 0.5},
      {"1 1 -0", nullptr, 0, 0, -0.0},
      {"1 1 -0.0", nullptr, 0, 0, -0.0},
      {"1 1 0.1", nullptr, 0, 0, 0.1},
      {"1 1 1.00000000000000011102230246251565404236316680908203125",
       nullptr, 0, 0, 1.0},
      {"1 1 1.00000000000000011102230246251565404236316680908203126",
       nullptr, 0, 0, 1.0000000000000002},
      {"2 3 -7.25e-3", nullptr, 1, 2, -7.25e-3},
      {"3 3 007", nullptr, 2, 2, 7.0},
      // Blanks: tabs, a CRLF line end, leading blanks.
      {"1\t2\t0.5", nullptr, 0, 1, 0.5},
      {"2 1 0.5\r", nullptr, 1, 0, 0.5},
      {"  \t3 2 \v0.5\f", nullptr, 2, 1, 0.5},
      // Lines that are not entries.
      {"", "bad entry line"},
      {"\r", "bad entry line"},
      {"% a comment", "bad entry line"},
      {"1,1,0.5", "bad entry line"},
      {"1 x 0.5", "bad entry line"},
      {"1", "bad entry line"},
      {"99999999999999999999 1 0.5", "bad entry line"},
      {"1 -99999999999999999999 0.5", "bad entry line"},
      {"1 1", "missing value"},
      {"1 1 \r", "missing value"},
      {"1 1 .", "missing value"},
      {"1 1 - 5", "missing value"},
      {"1 1 x", "missing value"},
      // Indices outside 1..3.
      {"0 1 0.5", "entry out of bounds"},
      {"1 0 0.5", "entry out of bounds"},
      {"4 1 0.5", "entry out of bounds"},
      {"1 4 0.5", "entry out of bounds"},
      {"-1 1 0.5", "entry out of bounds"},
      {"9223372036854775807 1 0.5", "entry out of bounds"},
  };
  for (const EntryLine& c : cases) expect_entry("real", c);
}

TEST(MatrixMarket, PatternAndIntegerEntryLines) {
  const EntryLine pattern[] = {
      {"1 2", nullptr, 0, 1, 1.0},
      {"1 2\r", nullptr, 0, 1, 1.0},
      {"1 2 7.5 ignored", nullptr, 0, 1, 1.0},
      {"1 2 nan", nullptr, 0, 1, 1.0},
      {"1 2x", "bad entry line"},  // an index ends at a blank
      {"1", "bad entry line"},
      {"4 2", "entry out of bounds"},
  };
  for (const EntryLine& c : pattern) expect_entry("pattern", c);
  const EntryLine integer[] = {
      {"1 2 3", nullptr, 0, 1, 3.0},
      {"1 2 -3", nullptr, 0, 1, -3.0},
      {"1 2 3.5", nullptr, 0, 1, 3.5},
      {"1 2", "missing value"},
  };
  for (const EntryLine& c : integer) expect_entry("integer", c);
}

TEST(MatrixMarket, EntryListRules) {
  const std::string header = "%%MatrixMarket matrix coordinate real general\n";
  const auto read = [&](const std::string& body) {
    std::istringstream in(header + body);
    return io::read_matrix_market(in);
  };
  const auto error_of = [&](const std::string& body) -> std::string {
    try {
      (void)read(body);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  // Lines after the claimed count are ignored, whatever they hold.
  EXPECT_EQ(read("3 3 1\n1 1 0.5\nnot an entry\n").nnz(), 1u);
  // The last line may end without a '\n', and lines may end in CRLF.
  EXPECT_EQ(read("3 3 2\r\n1 1 0.5\r\n2 2 0.25").nnz(), 2u);
  // An empty line or a comment among the entries is a bad line.
  EXPECT_NE(error_of("3 3 3\n1 1 0.5\n\n2 2 0.5\n").find("bad entry line: "),
            std::string::npos);
  EXPECT_NE(error_of("3 3 3\n1 1 0.5\n% late\n2 2 0.5\n")
                .find("bad entry line: % late"),
            std::string::npos);
  // The earliest bad line is the one named ...
  EXPECT_NE(error_of("3 3 3\n1 1 0.5\n4 1 0.5\n1 1 nan\n")
                .find("entry out of bounds: 4 1 0.5"),
            std::string::npos);
  // ... also when the file then ends early (a reader that collected
  // every line before parsing reported the end instead).
  EXPECT_NE(error_of("3 3 5\n1 1 0.5\n1 1 nan\n")
                .find("missing value: 1 1 nan"),
            std::string::npos);
  EXPECT_NE(error_of("3 3 5\n1 1 0.5\n2 2 0.5\n")
                .find("unexpected end of entries"),
            std::string::npos);
  EXPECT_NE(error_of("3 3 1\n").find("unexpected end of entries"),
            std::string::npos);
  EXPECT_EQ(read("3 3 0\n").nnz(), 0u);
}

TEST(MatrixMarket, OneBasedIndexingOnDisk) {
  MmTriples m(2, 2);
  m.push(0, 0, 1.0);
  std::stringstream ss;
  io::write_matrix_market(ss, m);
  EXPECT_NE(ss.str().find("\n1 1 1"), std::string::npos);
}

}  // namespace
