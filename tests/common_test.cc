/**
 * @file
 * Unit tests for the common utilities: stats, table printer, PRNG,
 * units, and error macros.
 *
 * The global operator new/delete are replaced with malloc/free
 * wrappers that count allocations, so that a test can pin how many a
 * table's rows cost.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <new>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/prng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace {

std::atomic<std::size_t> g_allocs{0};

}  // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace regate {
namespace {

TEST(Units, BinarySizes)
{
    EXPECT_EQ(units::KiB(4), 4096u);
    EXPECT_EQ(units::MiB(1), 1048576u);
    EXPECT_EQ(units::GiB(1), 1073741824u);
}

TEST(Units, Bandwidth)
{
    EXPECT_DOUBLE_EQ(units::GBps(2.0), 2e9);
    EXPECT_DOUBLE_EQ(units::MHz(700), 7e8);
}

TEST(Units, EnergyConversions)
{
    EXPECT_DOUBLE_EQ(units::pJ(1.0), 1e-12);
    EXPECT_DOUBLE_EQ(units::joulesToKWh(3.6e6), 1.0);
}

TEST(Stats, Mean)
{
    EXPECT_DOUBLE_EQ(stats::mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
}

TEST(Stats, MinMax)
{
    EXPECT_DOUBLE_EQ(stats::minOf({3, 1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(stats::maxOf({3, 1, 2}), 3.0);
    EXPECT_THROW(stats::minOf({}), ConfigError);
}

TEST(Stats, R2PerfectCorrelation)
{
    std::vector<double> xs = {1, 2, 3, 4};
    std::vector<double> ys = {2, 4, 6, 8};
    EXPECT_NEAR(stats::r2(xs, ys), 1.0, 1e-12);
}

TEST(Stats, R2Uncorrelated)
{
    std::vector<double> xs = {1, 2, 3, 4};
    std::vector<double> ys = {1, -1, 1, -1};
    EXPECT_LT(stats::r2(xs, ys), 0.5);
}

TEST(Stats, R2ConstantSamples)
{
    // A constant sample explains none of a varying one, and two
    // different constants do not agree: only equal constants score 1.
    std::vector<double> varying = {1, 2, 3, 4};
    std::vector<double> flat = {5, 5, 5, 5};
    EXPECT_DOUBLE_EQ(stats::r2(flat, varying), 0.0);
    EXPECT_DOUBLE_EQ(stats::r2(varying, flat), 0.0);
    EXPECT_DOUBLE_EQ(stats::r2(flat, {7, 7, 7, 7}), 0.0);
    EXPECT_DOUBLE_EQ(stats::r2(flat, flat), 1.0);
}

TEST(Stats, R2SizeMismatch)
{
    EXPECT_THROW(stats::r2({1, 2}, {1, 2, 3}), ConfigError);
}

TEST(Stats, WeightedCdf)
{
    auto cdf = stats::weightedCdf({{1.0, 1.0}, {2.0, 3.0}});
    ASSERT_EQ(cdf.size(), 2u);
    EXPECT_DOUBLE_EQ(cdf[0].second, 0.25);
    EXPECT_DOUBLE_EQ(cdf[1].second, 1.0);
    EXPECT_DOUBLE_EQ(stats::cdfAt(cdf, 1.5), 0.25);
    EXPECT_DOUBLE_EQ(stats::cdfAt(cdf, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(stats::cdfAt(cdf, 2.0), 1.0);
}

TEST(Stats, WeightedCdfMergesDuplicates)
{
    auto cdf = stats::weightedCdf({{1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}});
    ASSERT_EQ(cdf.size(), 2u);
    EXPECT_DOUBLE_EQ(cdf[0].second, 0.5);
}

TEST(Table, AlignsAndCounts)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1.0"});
    t.addSeparator();
    t.addRow({"b", "22.5"});
    EXPECT_EQ(t.rowCount(), 3u);

    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22.5"), std::string::npos);
}

TEST(Table, RejectsOversizedRows)
{
    TablePrinter t({"one"});
    EXPECT_THROW(t.addRow({"a", "b"}), ConfigError);
}

TEST(Table, PrintsExactBytes)
{
    TablePrinter t({"name", "value", "note"});
    t.addRow({"alpha", "1.0", "ok"});
    t.addRow({"b", "-22.5"});  // missing last cell
    t.addSeparator();
    t.addRow({"-x", "n/a", "3"});
    std::ostringstream os;
    t.print(os);
    // Headers and text cells left-aligned, numeric cells (a leading
    // digit, sign or point) right-aligned, missing cells blank.
    EXPECT_EQ(os.str(),
              "| name  | value | note |\n"
              "|-------|-------|------|\n"
              "| alpha |   1.0 | ok   |\n"
              "| b     | -22.5 |      |\n"
              "|-------|-------|------|\n"
              "|    -x | n/a   |    3 |\n");
}

namespace {

/** A stream buffer that keeps the bytes and the size of every write. */
class WriteLog : public std::streambuf
{
  public:
    std::string bytes;
    std::vector<std::size_t> writes;

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        bytes.append(s, static_cast<std::size_t>(n));
        writes.push_back(static_cast<std::size_t>(n));
        return n;
    }

    int_type
    overflow(int_type c) override
    {
        if (traits_type::eq_int_type(c, traits_type::eof()))
            return traits_type::not_eof(c);
        char ch = traits_type::to_char_type(c);
        return xsputn(&ch, 1) == 1 ? c : traits_type::eof();
    }
};

/** A table row as the test holds it; nullopt is a separator. */
using TestRow = std::optional<std::vector<std::string>>;

/**
 * The table TablePrinter should print for @p headers and @p rows,
 * rendered a line at a time with iostream padding: widths over the
 * headers and every row, missing cells blank, cells that start with a
 * digit, sign or point right-aligned (headers never).
 */
std::string
referenceTable(const std::vector<std::string> &headers,
               const std::vector<TestRow> &rows)
{
    std::vector<std::size_t> widths;
    for (const auto &h : headers)
        widths.push_back(h.size());
    for (const auto &row : rows) {
        for (std::size_t i = 0; row && i < row->size(); ++i)
            widths[i] = std::max(widths[i], (*row)[i].size());
    }
    std::ostringstream os;
    auto line = [&](const std::vector<std::string> &cells, bool numeric) {
        os << '|';
        for (std::size_t i = 0; i < headers.size(); ++i) {
            std::string cell = i < cells.size() ? cells[i] : "";
            bool right = numeric && !cell.empty() &&
                         std::string("0123456789+-.").find(cell[0]) !=
                             std::string::npos;
            os << ' ' << (right ? std::right : std::left)
               << std::setw(static_cast<int>(widths[i])) << cell << " |";
        }
        os << '\n';
    };
    auto separator = [&] {
        os << '|';
        for (std::size_t w : widths)
            os << std::string(w + 2, '-') << '|';
        os << '\n';
    };
    line(headers, false);
    separator();
    for (const auto &row : rows) {
        if (row)
            line(*row, true);
        else
            separator();
    }
    return os.str();
}

}  // namespace

TEST(Table, PrintsLargeTablesInBoundedWrites)
{
    // Separators first, consecutive and last; rows of every width,
    // some short; numeric and text cells in every column.
    std::vector<std::string> headers = {"name", "value", "note", "x"};
    std::vector<TestRow> rows = {std::nullopt};
    for (std::size_t i = 0; i < 6000; ++i) {
        std::vector<std::string> cells = {
            "case-" + std::to_string(i) + std::string(i % 17, 'n'),
            (i % 3 ? "-" : "") + std::to_string(i * 37 % 1000) + ".5",
            std::string(i % 23, 'o'),
            i % 5 ? "+" + std::to_string(i) : ".25"};
        cells.resize(4 - i % 4);  // Every fourth row full.
        rows.push_back(cells);
        if (i % 1000 == 999) {
            rows.push_back(std::nullopt);
            rows.push_back(std::nullopt);
        }
    }
    rows.push_back(std::nullopt);

    TablePrinter t(headers);
    for (const auto &row : rows) {
        if (row)
            t.addRow(*row);
        else
            t.addSeparator();
    }
    EXPECT_EQ(t.rowCount(), rows.size());
    WriteLog log;
    std::ostream os(&log);
    t.print(os);
    std::string want = referenceTable(headers, rows);
    EXPECT_EQ(log.bytes, want);
    // Several writes, each whole lines of at most one chunk.
    EXPECT_GE(log.writes.size(), 3u);
    EXPECT_GT(want.size(), 2 * TablePrinter::kWriteChunk);
    std::size_t end = 0;
    for (std::size_t n : log.writes) {
        EXPECT_LE(n, TablePrinter::kWriteChunk);
        end += n;
        EXPECT_EQ(log.bytes[end - 1], '\n') << "a write ends mid-line";
    }

    // A table within one chunk is one write.
    TablePrinter small(headers);
    small.addRow({"a", "1"});
    WriteLog small_log;
    std::ostream small_os(&small_log);
    small.print(small_os);
    EXPECT_EQ(small_log.writes.size(), 1u);
    EXPECT_EQ(small_log.bytes, referenceTable(headers, {{{"a", "1"}}}));
}

TEST(Table, AnyCellTextPrintsAsARow)
{
    // Separators are marked apart from the cells, so no cell text,
    // not even "\x01--", reads as one.
    TablePrinter t({"a", "b"});
    t.addRow({"\x01--", "x"});
    std::ostringstream os;
    t.print(os);
    EXPECT_EQ(os.str(),
              "| a   | b |\n"
              "|-----|---|\n"
              "| \x01-- | x |\n");
}

namespace {

/**
 * Allocations addRow and addSeparator make for @p n rows of a
 * three-column table, every other row short, a separator after every
 * fourth. The rows are built beforehand and moved in.
 */
std::size_t
tableAllocations(std::size_t n)
{
    TablePrinter t({"name", "value", "note"});
    std::vector<std::vector<std::string>> rows;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 2)
            rows.push_back({"row", "1.5"});
        else
            rows.push_back({"row", "1.5", "ok"});
    }
    std::size_t before = g_allocs.load();
    for (std::size_t i = 0; i < n; ++i) {
        t.addRow(std::move(rows[i]));
        if (i % 4 == 3)
            t.addSeparator();
    }
    return g_allocs.load() - before;
}

}  // namespace

TEST(Table, RowsCostLogarithmicAllocations)
{
    // The cells' text, their end offsets and the rows each grow
    // geometrically, so a few allocations per doubling of N.
    for (std::size_t n : {1024u, 16384u}) {
        std::size_t allocs = tableAllocations(n);
        EXPECT_LE(allocs, 4u * std::bit_width(n)) << n << " rows";
    }
}

namespace {

// printf with a buffer as long as the output: the reference the
// formatters must reproduce byte for byte.
template <typename... Args>
std::string
printfString(const char *format, Args... args)
{
    int n = std::snprintf(nullptr, 0, format, args...);
    std::string out(static_cast<std::size_t>(n) + 1, '\0');
    std::snprintf(out.data(), out.size(), format, args...);
    out.pop_back();
    return out;
}

// TablePrinter::eng's scaling, printed with printf.
std::string
printfEng(double v, int precision)
{
    const char *suffix = "";
    double a = std::fabs(v);
    if (a >= 1e12) {
        v /= 1e12;
        suffix = "T";
    } else if (a >= 1e9) {
        v /= 1e9;
        suffix = "G";
    } else if (a >= 1e6) {
        v /= 1e6;
        suffix = "M";
    } else if (a >= 1e3) {
        v /= 1e3;
        suffix = "K";
    } else if (a > 0 && a < 1e-6) {
        v *= 1e9;
        suffix = "n";
    } else if (a > 0 && a < 1e-3) {
        v *= 1e6;
        suffix = "u";
    } else if (a > 0 && a < 1.0) {
        v *= 1e3;
        suffix = "m";
    }
    return printfString("%.*f%s", precision, v, suffix);
}

}  // namespace

TEST(Table, Formatting)
{
    EXPECT_EQ(TablePrinter::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(TablePrinter::pct(0.155, 1), "15.5%");
    EXPECT_EQ(TablePrinter::eng(1.5e9, 1), "1.5G");
    EXPECT_EQ(TablePrinter::eng(2500, 1), "2.5K");
    EXPECT_EQ(TablePrinter::eng(0.0025, 1), "2.5m");
    EXPECT_EQ(TablePrinter::eng(2.5e-6, 1), "2.5u");
    EXPECT_EQ(TablePrinter::eng(2.5e-9, 1), "2.5n");
    EXPECT_EQ(TablePrinter::eng(0.0, 1), "0.0");

    // Differential against printf: exact ties, signed zero,
    // non-finite values, the extremes, then a seeded spread of
    // magnitudes and exactly representable halves.
    std::vector<double> values = {
        0.125, 0.25, 2.5, -2.5, 0.5, 1.5, 0.0, -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        5e-324, 1e300, -1e300, std::numeric_limits<double>::max(),
        0.155, 0.0005, 999.9995, 1e-7, 1e15};
    Prng rng(17);
    for (int i = 0; i < 500; ++i) {
        int exp10 = static_cast<int>(rng.uniform(0, 30)) - 12;
        double v = rng.uniform01() * std::pow(10.0, exp10);
        values.push_back(rng.uniform(0, 1) ? v : -v);
        // k / 2^j: a tie at some precision.
        double half = static_cast<double>(rng.uniform(0, 1u << 20)) /
                      static_cast<double>(1u << rng.uniform(1, 12));
        values.push_back(rng.uniform(0, 1) ? half : -half);
    }
    for (double v : values) {
        for (int p = 0; p <= 6; ++p) {
            EXPECT_EQ(TablePrinter::fmt(v, p), printfString("%.*f", p, v))
                << printfString("v=%a", v);
            EXPECT_EQ(TablePrinter::pct(v, p),
                      printfString("%.*f%%", p, v * 100.0))
                << printfString("v=%a", v);
            EXPECT_EQ(TablePrinter::eng(v, p), printfEng(v, p))
                << printfString("v=%a", v);
        }
    }

    // Just on each side of each rounding tie (k + 0.5) / 10^p, where
    // |v| * 10^p lands within a few ulps of .5 and one rounding of the
    // product can flip the printed digit.
    Prng ties(29);
    for (int p = 0; p <= 6; ++p) {
        double scale = std::pow(10.0, p);
        for (int i = 0; i < 300; ++i) {
            // Small, mid-sized and past-2^50 multiples; k = 0 first.
            std::uint64_t span = i < 100   ? 100
                                 : i < 200 ? std::uint64_t{1} << 20
                                           : std::uint64_t{4} << 50;
            double k = i == 0 ? 0.0
                              : static_cast<double>(ties.uniform(0, span));
            double tie = (k + 0.5) / scale;
            for (double v : {std::nextafter(tie, 0.0), tie,
                             std::nextafter(tie, 1e300)}) {
                for (double s : {v, -v}) {
                    EXPECT_EQ(TablePrinter::fmt(s, p),
                              printfString("%.*f", p, s))
                        << printfString("v=%a p=%d", s, p);
                }
            }
        }
    }
    // Negatives that round to zero keep their sign.
    EXPECT_EQ(TablePrinter::fmt(-std::nextafter(0.05, 0.0), 1), "-0.0");
    EXPECT_EQ(TablePrinter::fmt(-0.04, 1), "-0.0");
    EXPECT_EQ(TablePrinter::fmt(-std::nextafter(0.5, 0.0), 0), "-0");
    EXPECT_EQ(TablePrinter::pct(-0.0004, 1), "-0.0%");

    // The whole number, where a 64-byte buffer kept 63 characters.
    std::string big = TablePrinter::fmt(1e300, 2);
    EXPECT_EQ(big.size(), 304u);  // 301 integer digits, point, 2 places
    EXPECT_EQ(big, printfString("%.2f", 1e300));
    EXPECT_EQ(TablePrinter::fmt(-std::numeric_limits<double>::max(), 0)
                  .size(),
              310u);
    EXPECT_THROW(TablePrinter::fmt(1.0, -1), LogicError);
    EXPECT_THROW(TablePrinter::fmt(1.0, TablePrinter::kMaxPrecision + 1),
                 LogicError);
}

TEST(Prng, Deterministic)
{
    Prng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, UniformBounds)
{
    Prng rng(3);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.uniform(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        double d = rng.uniform01();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Error, CheckThrowsConfigError)
{
    EXPECT_THROW(REGATE_CHECK(false, "bad thing ", 42), ConfigError);
    EXPECT_NO_THROW(REGATE_CHECK(true, "fine"));
}

TEST(Error, AssertThrowsLogicError)
{
    EXPECT_THROW(REGATE_ASSERT(false, "bug"), LogicError);
}

TEST(Error, MessageContainsDetails)
{
    try {
        REGATE_CHECK(false, "value was ", 7);
        FAIL();
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

}  // namespace
}  // namespace regate
