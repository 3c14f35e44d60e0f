/**
 * @file
 * Aligned plain-text table printer used by the bench harnesses.
 *
 * Every bench binary regenerates one of the paper's tables or figures as
 * a set of labelled rows; TablePrinter renders them with aligned columns
 * so the output can be compared side-by-side with the paper.
 *
 * A table keeps its cells packed: every cell's bytes in one text
 * buffer, a 32-bit end offset per cell and, per row, the index of its
 * first cell or a separator marker. A row costs its bytes plus four
 * per cell, and N rows make O(log N) allocations. print writes the
 * rendered lines in chunks of at most kWriteChunk bytes, so a
 * sweep's table of thousands of rows is never held rendered whole.
 */

#ifndef REGATE_COMMON_TABLE_H
#define REGATE_COMMON_TABLE_H

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
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

    /**
     * Render the table to @p os: one write when it fits in
     * kWriteChunk bytes, else whole lines in writes of at most
     * kWriteChunk bytes (a line longer than that is a write of its
     * own).
     */
    void print(std::ostream &os) const;

    /** Number of rows added so far, separators included. */
    std::size_t rowCount() const { return rows_.size(); }

    /** Most bytes print hands @p os per write. */
    static constexpr std::size_t kWriteChunk = 64 * 1024;

    /** Largest @p precision the formatters accept. */
    static constexpr int kMaxPrecision = 64;

    /**
     * Format a double with @p precision digits after the point,
     * byte for byte as printf's "%.*f" (the exact value, ties to
     * even). For precision <= 6 and |v| * 10^precision below 2^50,
     * the product is rounded to an integer and printed with a point;
     * this is exact unless the product's fraction lies within an ulp
     * of .5, where its one rounding could flip the digit. Those
     * values, NaN, infinities and the rest go through
     * std::to_chars's exact fixed format.
     */
    static std::string fmt(double v, int precision = 2);

    /** Format a value as a percentage ("12.3%"). */
    static std::string pct(double fraction, int precision = 1);

    /** Format with engineering suffix (1.2K, 3.4M, 5.6G). */
    static std::string eng(double v, int precision = 2);

  private:
    /** rows_ entry of a separator line. */
    static constexpr std::uint32_t kSeparator = UINT32_MAX;

    /** Append one row of cells; fewer than columns_ are padded empty. */
    void appendCells(const std::vector<std::string> &cells);

    /** Bytes of cell @p i. */
    std::string_view cell(std::size_t i) const;

    std::size_t columns_;
    /** Every cell's bytes, the headers' first. */
    std::string text_;
    /** End offset in text_ of each cell; a row's cells are adjacent. */
    std::vector<std::uint32_t> ends_;
    /** Per row, the index in ends_ of its first cell, or kSeparator. */
    std::vector<std::uint32_t> rows_;
};

}  // namespace regate

#endif  // REGATE_COMMON_TABLE_H
