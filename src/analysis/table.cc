#include "analysis/table.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ot::analysis {

TextTable::TextTable(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    cells.resize(_headers.size());
    _rows.push_back(std::move(cells));
}

std::string
TextTable::str() const
{
    std::vector<std::size_t> width(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        width[c] = _headers[c].size();
    for (const auto &row : _rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto render_row = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::string cell = row[c];
            cell.resize(width[c], ' ');
            line += cell;
            if (c + 1 < row.size())
                line += "  ";
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = render_row(_headers);
    std::size_t rule = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        rule += width[c] + (c + 1 < width.size() ? 2 : 0);
    out += std::string(rule, '-') + "\n";
    for (const auto &row : _rows)
        out += render_row(row);
    return out;
}

std::string
TextTable::csv() const
{
    auto escape = [](const std::string &cell) {
        if (cell.find_first_of(",\"\n") == std::string::npos)
            return cell;
        std::string out = "\"";
        for (char c : cell) {
            if (c == '"')
                out += '"';
            out += c;
        }
        out += '"';
        return out;
    };
    auto render = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                line += ',';
            line += escape(row[c]);
        }
        return line + "\n";
    };
    std::string out = render(_headers);
    for (const auto &row : _rows)
        out += render(row);
    return out;
}

std::string
formatQuantity(double v)
{
    static const char *suffix[] = {"", "K", "M", "G", "T", "P", "E"};
    if (v < 0) {
        // Not `"-" + ...`: GCC 12's -Wrestrict misfires on it.
        std::string out = formatQuantity(-v);
        out.insert(out.begin(), '-');
        return out;
    }
    int mag = 0;
    while (v >= 1000.0 && mag < 6) {
        v /= 1000.0;
        ++mag;
    }
    char buf[32];
    if (v >= 100 || v == std::floor(v))
        std::snprintf(buf, sizeof(buf), "%.0f%s", v, suffix[mag]);
    else
        std::snprintf(buf, sizeof(buf), "%.2f%s", v, suffix[mag]);
    return buf;
}

std::string
formatRatio(double v)
{
    char buf[32];
    if (v >= 100)
        std::snprintf(buf, sizeof(buf), "%.0fx", v);
    else
        std::snprintf(buf, sizeof(buf), "%.2fx", v);
    return buf;
}

std::string
formatExponent(const std::string &base, double e)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s^%.2f", base.c_str(), e);
    return buf;
}

} // namespace ot::analysis
