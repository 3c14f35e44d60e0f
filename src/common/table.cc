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
    : columns_(headers.size())
{
    REGATE_CHECK(columns_ != 0, "table needs at least one column");
    appendCells(headers);
}

void
TablePrinter::appendCells(const std::vector<std::string> &cells)
{
    std::size_t bytes = 0;
    for (const auto &c : cells)
        bytes += c.size();
    // Offsets and cell indices stay below kSeparator.
    REGATE_CHECK(bytes < kSeparator - text_.size() &&
                     columns_ < kSeparator - ends_.size(),
                 "table exceeds ", kSeparator - 1, " bytes or cells");
    for (const auto &c : cells) {
        text_ += c;
        ends_.push_back(static_cast<std::uint32_t>(text_.size()));
    }
    ends_.resize(ends_.size() + columns_ - cells.size(),
                 static_cast<std::uint32_t>(text_.size()));
}

std::string_view
TablePrinter::cell(std::size_t i) const
{
    std::uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return {text_.data() + begin, ends_[i] - begin};
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    REGATE_CHECK(cells.size() <= columns_,
                 "row has ", cells.size(), " cells but table has ",
                 columns_, " columns");
    auto first = static_cast<std::uint32_t>(ends_.size());
    appendCells(cells);
    rows_.push_back(first);
}

void
TablePrinter::addSeparator()
{
    rows_.push_back(kSeparator);
}

namespace {

bool
looksNumeric(std::string_view s)
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
    std::vector<std::size_t> widths(columns_);
    auto widen = [&](std::size_t first) {
        for (std::size_t i = 0; i < columns_; ++i)
            widths[i] = std::max(widths[i], cell(first + i).size());
    };
    widen(0);
    for (std::uint32_t first : rows_) {
        if (first != kSeparator)
            widen(first);
    }

    // Every line, cells or separator, is "|" + (w + 3) per column +
    // "\n". Lines are gathered into a buffer of one chunk (or one
    // line, if longer) that is written whenever the next line would
    // not fit, so a table within a chunk is one write.
    std::size_t line_len = 2;
    for (std::size_t w : widths)
        line_len += w + 3;
    std::string separator = "|";
    for (std::size_t w : widths) {
        separator.append(w + 2, '-');
        separator += '|';
    }
    separator += '\n';

    std::size_t chunk = std::max(kWriteChunk, line_len);
    std::string out;
    out.reserve(std::min(chunk, line_len * (rows_.size() + 2)));
    auto write = [&] {
        os.write(out.data(), static_cast<std::streamsize>(out.size()));
        out.clear();
    };
    // Append the line of the row whose first cell is @p first, or a
    // separator line for kSeparator.
    auto append_line = [&](std::uint32_t first, bool numeric_align) {
        if (out.size() + line_len > chunk)
            write();
        if (first == kSeparator) {
            out += separator;
            return;
        }
        out += '|';
        for (std::size_t i = 0; i < columns_; ++i) {
            std::string_view c = cell(first + i);
            std::size_t pad = widths[i] - c.size();
            bool right = numeric_align && looksNumeric(c);
            out += ' ';
            if (right) {
                out.append(pad, ' ');
                out += c;
            } else {
                out += c;
                out.append(pad, ' ');
            }
            out += " |";
        }
        out += '\n';
    };

    append_line(0, false);
    append_line(kSeparator, false);
    for (std::uint32_t first : rows_)
        append_line(first, true);
    write();
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
