/**
 * @file
 * Aligned plain-text table printer used by the bench harnesses.
 *
 * Every bench binary regenerates one of the paper's tables or figures as
 * a set of labelled rows; TablePrinter renders them with aligned columns
 * so the output can be compared side-by-side with the paper.
 */

#ifndef REGATE_COMMON_TABLE_H
#define REGATE_COMMON_TABLE_H

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace regate {

/**
 * Collects rows of string cells and prints them with per-column
 * alignment. Numeric cells are right-aligned, text cells left-aligned.
 */
class TablePrinter
{
  public:
    /** Create a table with the given column headers. */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append a row; missing cells render empty, extras are an error. */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal separator line. */
    void addSeparator();

    /** Render the table to @p os in a single write. */
    void print(std::ostream &os) const;

    /** Number of data rows added so far. */
    std::size_t rowCount() const { return rows_.size(); }

    /** Largest @p precision the formatters accept. */
    static constexpr int kMaxPrecision = 64;

    /**
     * Format a double with @p precision digits after the point,
     * byte for byte as printf's "%.*f".
     */
    static std::string fmt(double v, int precision = 2);

    /** Format a value as a percentage ("12.3%"). */
    static std::string pct(double fraction, int precision = 1);

    /** Format with engineering suffix (1.2K, 3.4M, 5.6G). */
    static std::string eng(double v, int precision = 2);

  private:
    static constexpr const char *kSeparatorTag = "\x01--";

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace regate

#endif  // REGATE_COMMON_TABLE_H
