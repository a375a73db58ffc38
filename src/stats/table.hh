/**
 * @file
 * Aligned text-table rendering for the driver's table sink and the
 * paper reports (sim/reports.hh). Each prints the rows/series its
 * paper figure reports; this class keeps that output readable and
 * uniform.
 */

#ifndef PROPHET_STATS_TABLE_HH
#define PROPHET_STATS_TABLE_HH

#include <string>
#include <vector>

namespace prophet::stats
{

/**
 * A simple column-aligned table. Populate a header and rows of string
 * cells, then render. Numeric helpers format doubles consistently.
 */
class Table
{
  public:
    /** Construct with column headers. */
    explicit Table(std::vector<std::string> header);

    /** Append a row; must have exactly as many cells as the header. */
    void addRow(std::vector<std::string> row);

    /** Format a double with the given precision (default 3). */
    static std::string fmt(double v, int precision = 3);

    /** Render the table with aligned columns and a separator line. */
    std::string render() const;

    /** Number of data rows. */
    std::size_t numRows() const { return rows.size(); }

  private:
    std::vector<std::string> headerRow;
    std::vector<std::vector<std::string>> rows;
};

} // namespace prophet::stats

#endif // PROPHET_STATS_TABLE_HH
