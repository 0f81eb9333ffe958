/**
 * @file
 * Plain-text table rendering for experiment reports. Every
 * figure and table isim-fig prints goes through this formatter, so
 * the output rows mirror the bars of the corresponding paper figure.
 */

#ifndef ISIM_STATS_TABLE_HH
#define ISIM_STATS_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace isim {

/**
 * A simple column-aligned table. Cells are strings; numeric helpers
 * format with fixed precision. The first column is left-aligned, the
 * rest right-aligned, matching conventional results tables.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    std::size_t columns() const { return headers_.size(); }
    std::size_t rows() const { return rows_.size(); }

    /** Append a fully formed row; must match the header width. */
    void addRow(std::vector<std::string> cells);

    /** Row-building helpers. */
    class RowBuilder
    {
      public:
        explicit RowBuilder(Table &table) : table_(table) {}
        RowBuilder &cell(const std::string &text);
        RowBuilder &num(double value, int precision = 1);
        RowBuilder &count(std::uint64_t value);
        ~RowBuilder();

        RowBuilder(const RowBuilder &) = delete;
        RowBuilder &operator=(const RowBuilder &) = delete;

      private:
        Table &table_;
        std::vector<std::string> cells_;
    };

    RowBuilder row() { return RowBuilder(*this); }

    /** Render aligned text, one trailing newline included. */
    std::string toText() const;

    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision. */
std::string formatNum(double value, int precision = 1);

} // namespace isim

#endif // ISIM_STATS_TABLE_HH
