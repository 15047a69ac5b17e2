#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace naspipe {

namespace {

/** std::from_chars is exactly the strict contract: no whitespace, no
 *  '+', no '-' for unsigned types, and range-checked. */
template <typename T>
bool
parseWhole(const std::string &text, T &out)
{
    const char *last = text.data() + text.size();
    T value{};
    auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || end != last)
        return false;
    out = value;
    return true;
}

} // namespace

std::string
formatFixed(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

std::string
formatPercent(double fraction, int digits)
{
    return formatFixed(fraction * 100.0, digits) + "%";
}

std::string
formatBytes(std::uint64_t bytes)
{
    static const char *kUnits[] = {"B", "K", "M", "G", "T"};
    double value = static_cast<double>(bytes);
    std::size_t unit = 0;
    while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
        value /= 1024.0;
        unit++;
    }
    // Whole numbers print without a fraction ("474M"), otherwise one
    // decimal ("57.8G"), matching the paper's table style.
    if (value == static_cast<double>(static_cast<std::uint64_t>(value)))
        return formatFixed(value, 0) + kUnits[unit];
    return formatFixed(value, 1) + kUnits[unit];
}

std::string
formatFactor(double factor, int digits)
{
    return formatFixed(factor, digits) + "x";
}

std::vector<std::string>
splitString(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    for (;;) {
        std::size_t end = text.find(sep, begin);
        if (end == std::string::npos) {
            out.push_back(text.substr(begin));
            return out;
        }
        out.push_back(text.substr(begin, end - begin));
        begin = end + 1;
    }
}

std::string
trimString(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        begin++;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        end--;
    }
    return text.substr(begin, end - begin);
}

std::string
padLeft(const std::string &text, std::size_t width)
{
    if (text.size() >= width)
        return text;
    return std::string(width - text.size(), ' ') + text;
}

std::string
padRight(const std::string &text, std::size_t width)
{
    if (text.size() >= width)
        return text;
    return text + std::string(width - text.size(), ' ');
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

std::string
joinStrings(const std::vector<std::string> &items, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); i++) {
        if (i)
            out += sep;
        out += items[i];
    }
    return out;
}

bool
parseWholeNumber(const std::string &text, int &out)
{
    return parseWhole(text, out);
}

bool
parseWholeNumber(const std::string &text, std::uint64_t &out)
{
    return parseWhole(text, out);
}

} // namespace naspipe
