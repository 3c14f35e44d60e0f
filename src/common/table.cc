#include "common/table.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
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

    auto append_line = [&](const std::vector<std::string> &cells,
                           bool numeric_align) {
        out += '|';
        for (std::size_t i = 0; i < headers_.size(); ++i) {
            const std::string &cell = i < cells.size() ? cells[i] : "";
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

// @p v with @p precision digits after the point, as printf's "%.*f"
// prints it (exact value, ties to even), followed by @p suffix.
std::string
fixed(double v, int precision, std::string_view suffix)
{
    REGATE_ASSERT(precision >= 0 && precision <= TablePrinter::kMaxPrecision,
                  "table precision ", precision, " outside [0, ",
                  TablePrinter::kMaxPrecision, "]");
    char buf[kMaxFixedChars];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::fixed, precision);
    REGATE_ASSERT(ec == std::errc(), "fixed-format buffer too small");
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
