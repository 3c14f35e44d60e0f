#include "common/table.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string_view>

#include "common/error.h"

namespace regate {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    REGATE_CHECK(!headers_.empty(), "table needs at least one column");
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    REGATE_CHECK(cells.size() <= headers_.size(),
                 "row has ", cells.size(), " cells but table has ",
                 headers_.size(), " columns");
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

void
TablePrinter::addSeparator()
{
    rows_.push_back({kSeparatorTag});
}

namespace {

bool
looksNumeric(const std::string &s)
{
    if (s.empty())
        return false;
    char c = s.front();
    return std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
           c == '+' || c == '.';
}

}  // namespace

void
TablePrinter::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_) {
        if (!row.empty() && row[0] == kSeparatorTag)
            continue;
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    }

    // Every line, cells or separator, is "|" + (w + 3) per column +
    // "\n", so the whole table is built in one exactly sized string
    // and written at once.
    std::size_t line_len = 2;
    for (std::size_t w : widths)
        line_len += w + 3;
    std::string out;
    out.reserve(line_len * (rows_.size() + 2));

    // Headers and rows (addRow pads them) have a cell per column.
    auto append_line = [&](const std::vector<std::string> &cells,
                           bool numeric_align) {
        out += '|';
        for (std::size_t i = 0; i < headers_.size(); ++i) {
            const std::string &cell = cells[i];
            std::size_t pad = widths[i] - cell.size();
            bool right = numeric_align && looksNumeric(cell);
            out += ' ';
            if (right) {
                out.append(pad, ' ');
                out += cell;
            } else {
                out += cell;
                out.append(pad, ' ');
            }
            out += " |";
        }
        out += '\n';
    };

    auto append_sep = [&]() {
        out += '|';
        for (std::size_t w : widths) {
            out.append(w + 2, '-');
            out += '|';
        }
        out += '\n';
    };

    append_line(headers_, false);
    append_sep();
    for (const auto &row : rows_) {
        if (!row.empty() && row[0] == kSeparatorTag)
            append_sep();
        else
            append_line(row, true);
    }
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

namespace {

// The longest fixed-format double: a sign, the 309 integer digits of
// DBL_MAX, the point and the fraction digits.
constexpr std::size_t kMaxFixedChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 +
    TablePrinter::kMaxPrecision;

// 10^p for the precisions roundedDigits takes; each is exact.
constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6};

// |v| * 10^p rounded to an integer the way printf rounds the exact |v|
// to p places, when one double product decides it. The product,
// rounded once, is within half an ulp of the exact one, so when its
// fraction is further than an ulp from .5 both round the same way.
// Nothing for p > 6, near .5, past 2^50 (where an ulp is a quarter
// or more) and for NaN and infinities.
std::optional<std::uint64_t>
roundedDigits(double v, int precision)
{
    if (precision >= static_cast<int>(std::size(kPow10)))
        return std::nullopt;
    double scaled = std::fabs(v) * kPow10[precision];
    if (!(scaled < 0x1p50))
        return std::nullopt;
    double whole = std::floor(scaled);
    double frac = scaled - whole;  // Exact.
    if (!(std::fabs(frac - 0.5) > scaled * 0x1p-52))
        return std::nullopt;
    return static_cast<std::uint64_t>(whole) + (frac > 0.5);
}

// @p v with @p precision digits after the point, as printf's "%.*f"
// prints it (exact value, ties to even), followed by @p suffix.
std::string
fixed(double v, int precision, std::string_view suffix)
{
    REGATE_ASSERT(precision >= 0 && precision <= TablePrinter::kMaxPrecision,
                  "table precision ", precision, " outside [0, ",
                  TablePrinter::kMaxPrecision, "]");
    char buf[kMaxFixedChars];
    char *end = buf;
    if (auto n = roundedDigits(v, precision)) {
        // n's digits, at least p + 1 of them so that a fraction has a
        // leading "0.", with the point p places from the right.
        auto p = static_cast<std::ptrdiff_t>(precision);
        char digits[24];
        char *first = digits + p + 1;
        char *last = std::to_chars(first, std::end(digits), *n).ptr;
        while (last - first < p + 1)
            *--first = '0';
        if (std::signbit(v))
            *end++ = '-';
        end = std::copy(first, last - p, end);
        if (p > 0) {
            *end++ = '.';
            end = std::copy(last - p, last, end);
        }
    } else {
        auto [last, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                        std::chars_format::fixed,
                                        precision);
        REGATE_ASSERT(ec == std::errc(), "fixed-format buffer too small");
        end = last;
    }
    std::string out(buf, end);
    out += suffix;
    return out;
}

}  // namespace

std::string
TablePrinter::fmt(double v, int precision)
{
    return fixed(v, precision, "");
}

std::string
TablePrinter::pct(double fraction, int precision)
{
    return fixed(fraction * 100.0, precision, "%");
}

std::string
TablePrinter::eng(double v, int precision)
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
    return fixed(v, precision, suffix);
}

}  // namespace regate
