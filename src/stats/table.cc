/**
 * @file
 * Table formatter implementation.
 */

#include "src/stats/table.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/base/logging.hh"

namespace isim {

std::string
formatNum(double value, int precision)
{
    if (!std::isfinite(value))
        return "-"; // undefined metric (e.g. quantile of an empty run)
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, value);
    return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    isim_assert(!headers_.empty());
}

void
Table::addRow(std::vector<std::string> cells)
{
    isim_assert(cells.size() == headers_.size(),
                "row width does not match header");
    rows_.push_back(std::move(cells));
}

Table::RowBuilder &
Table::RowBuilder::cell(const std::string &text)
{
    cells_.push_back(text);
    return *this;
}

Table::RowBuilder &
Table::RowBuilder::num(double value, int precision)
{
    cells_.push_back(formatNum(value, precision));
    return *this;
}

Table::RowBuilder &
Table::RowBuilder::count(std::uint64_t value)
{
    cells_.push_back(std::to_string(value));
    return *this;
}

Table::RowBuilder::~RowBuilder()
{
    table_.addRow(std::move(cells_));
}

std::string
Table::toText() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](std::ostringstream &os,
                        const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c > 0)
                os << "  ";
            if (c == 0) {
                os << cells[c]
                   << std::string(widths[c] - cells[c].size(), ' ');
            } else {
                os << std::string(widths[c] - cells[c].size(), ' ')
                   << cells[c];
            }
        }
        os << '\n';
    };

    std::ostringstream os;
    emit_row(os, headers_);
    std::size_t total = headers_.size() > 0 ? 2 * (headers_.size() - 1) : 0;
    for (auto w : widths)
        total += w;
    os << std::string(total, '-') << '\n';

    for (const auto &row : rows_)
        emit_row(os, row);
    return os.str();
}

void
Table::print(std::ostream &os) const
{
    os << toText();
}

} // namespace isim
