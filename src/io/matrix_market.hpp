// Matrix Market (coordinate, real/integer/pattern, general/symmetric) IO.
//
// HipMCL's input networks ship as .mtx-style edge lists; this reader is
// sufficient for those plus the files our generators write. Pattern
// entries read as 1.0; symmetric inputs are expanded (both triangles).
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/triples.hpp"
#include "util/types.hpp"

namespace mclx::io {

using MmTriples = sparse::Triples<vidx_t, val_t>;

/// Parse from a stream. Throws std::runtime_error on malformed input.
///
/// The header (banner, `%` comments, size line) is read line by line;
/// the entry lines are then read from the stream buffer in 1 MiB blocks,
/// so the stream is consumed past the last entry. The header's entry
/// count is untrusted: exactly that many lines are parsed, later lines
/// are ignored, and fewer raise "unexpected end of entries". An entry
/// line ends at '\n' or at the end of the input, and reads
///
///   blanks* index blanks+ index [blanks+ value] rest
///
/// Blanks are ' ', '\t', '\r', '\v' and '\f', so CRLF line ends parse.
/// An index is a decimal integer with an optional sign, and ends at a
/// blank or at the end of the line. A value is a decimal floating-point
/// number with an optional sign; a pattern file has none, and its rest
/// starts after the second index. The rest is ignored. Parsing follows
/// `std::istream` extraction: a value's digits end at the first
/// character that cannot continue it ("0x10" reads 0, "5e3e" reads
/// 5000), an exponent needs digits ("0.5e" fails), an underflow reads as
/// ±0 or a subnormal, and an overflow, "nan" or "inf" fails. The one
/// difference: an index must end at a blank, so "1 1.5 0.5", which
/// extraction read as (1, 1, 0.5), is rejected.
///
/// A bad line raises a named error that quotes it: "bad entry line"
/// (an index is missing or malformed), "missing value" or "entry out of
/// bounds" (an index outside 1..nrows or 1..ncols). Lines are checked in
/// file order, so the earliest bad line is the one named, and a file
/// that ends early after one reports that line, not its end.
MmTriples read_matrix_market(std::istream& in);

/// Parse from a file path.
MmTriples read_matrix_market_file(const std::string& path);

/// Write in "coordinate real general" with 1-based indices.
void write_matrix_market(std::ostream& out, const MmTriples& m,
                         const std::string& comment = {});

void write_matrix_market_file(const std::string& path, const MmTriples& m,
                              const std::string& comment = {});

}  // namespace mclx::io
