/**
 * @file
 * Minimal CSV reading/writing, used for power-trace and event-trace
 * persistence and for benchmark result dumps.
 *
 * Supports the subset of CSV the project emits: comma-separated
 * fields, optional '#' comment lines, no quoting/escaping (fields
 * must not contain commas or newlines).
 */

#ifndef QUETZAL_UTIL_CSV_HPP
#define QUETZAL_UTIL_CSV_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace quetzal {
namespace util {

/** One parsed CSV row. */
using CsvRow = std::vector<std::string>;

/**
 * Parse CSV from a stream. Blank lines and lines starting with '#'
 * are skipped. Whitespace around fields is trimmed.
 */
std::vector<CsvRow> readCsv(std::istream &in);

/** Writer that streams rows to an ostream. */
class CsvWriter
{
  public:
    /** Write to the given stream; the stream must outlive the writer. */
    explicit CsvWriter(std::ostream &out);

    /** Write a comment line ("# ..."). */
    void comment(const std::string &text);

    /** Write one row of numeric fields. */
    void row(const std::vector<double> &fields);

  private:
    std::ostream &out;
};

/** Parse a field as double; calls fatal() on malformed input. */
double parseDouble(const std::string &field);

} // namespace util
} // namespace quetzal

#endif // QUETZAL_UTIL_CSV_HPP
