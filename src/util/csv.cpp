#include "util/csv.hpp"

#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/logging.hpp"

namespace quetzal {
namespace util {

namespace {

std::string
trim(const std::string &text)
{
    const auto first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

} // namespace

std::vector<CsvRow>
readCsv(std::istream &in)
{
    std::vector<CsvRow> rows;
    std::string line;
    while (std::getline(in, line)) {
        const std::string trimmed = trim(line);
        if (trimmed.empty() || trimmed.front() == '#')
            continue;
        CsvRow fields;
        std::stringstream splitter(trimmed);
        std::string field;
        while (std::getline(splitter, field, ','))
            fields.push_back(trim(field));
        rows.push_back(std::move(fields));
    }
    return rows;
}

CsvWriter::CsvWriter(std::ostream &out_) : out(out_) {}

void
CsvWriter::comment(const std::string &text)
{
    out << "# " << text << "\n";
}

void
CsvWriter::row(const std::vector<double> &fields)
{
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out << ",";
        out << fields[i];
    }
    out << "\n";
}

double
parseDouble(const std::string &field)
{
    char *end = nullptr;
    const double value = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0')
        fatal(msg("malformed numeric CSV field: '", field, "'"));
    return value;
}

} // namespace util
} // namespace quetzal
