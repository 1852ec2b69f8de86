/**
 * @file
 * ASCII table rendering for experiment reports. The reproduction
 * driver (examples/repro.cpp) prints every paper table and figure
 * through this formatter so outputs have a uniform, diffable layout.
 */

#ifndef GALS_COMMON_TABLE_HH
#define GALS_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace gals
{

/** Column-aligned ASCII table with a title and a header row. */
class TextTable
{
  public:
    explicit TextTable(std::string title) : title_(std::move(title)) {}

    /** Set the header row (defines the column count). */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Append a separator rule between row groups. */
    void addRule();

    /** Render the table with column alignment. */
    std::string render() const;

    /** Render and write to stdout. */
    void print() const;

  private:
    struct Row
    {
        bool rule = false;
        std::vector<std::string> cells;
    };

    std::string title_;
    std::vector<std::string> header_;
    std::vector<Row> rows_;
};

/**
 * Render a horizontal ASCII bar chart (used for the paper figures:
 * one labeled bar per series point).
 */
std::string renderBarChart(const std::string &title,
                           const std::vector<std::string> &labels,
                           const std::vector<double> &values,
                           double scale_max, int width,
                           const std::string &unit);

} // namespace gals

#endif // GALS_COMMON_TABLE_HH
