#include "obs/metrics_registry.h"

#include <cstdio>
#include <sstream>

#include "common/string_util.h"

namespace naspipe {
namespace obs {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
MetricsRegistry::counter(const std::string &name, std::uint64_t value,
                         Stability stability)
{
    _metrics[name] = Scalar{std::to_string(value), stability};
}

void
MetricsRegistry::gauge(const std::string &name, double value,
                       int digits, Stability stability)
{
    _metrics[name] = Scalar{formatFixed(value, digits), stability};
}

void
MetricsRegistry::text(const std::string &name, const std::string &value,
                      Stability stability)
{
    _metrics[name] =
        Scalar{"\"" + jsonEscape(value) + "\"", stability};
}

void
MetricsRegistry::histogram(const std::string &name, FixedHistogram hist,
                           int boundDigits, Stability stability)
{
    _histograms[name] =
        HistEntry{std::move(hist), boundDigits, stability};
}

std::string
MetricsRegistry::exportJson(
    const std::vector<std::pair<std::string, std::string>> &headers,
    bool stableOnly) const
{
    std::ostringstream oss;
    oss << "{\"schema\":\"" << schemaName() << "\"";
    for (const auto &[key, value] : headers)
        oss << ",\"" << jsonEscape(key) << "\":\"" << jsonEscape(value)
            << "\"";

    oss << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, entry] : _metrics) {
        if (stableOnly && entry.stability != Stability::Stable)
            continue;
        if (!first)
            oss << ",";
        first = false;
        oss << "\"" << jsonEscape(name) << "\":" << entry.rendered;
    }
    oss << "},\"histograms\":{";
    first = true;
    for (const auto &[name, entry] : _histograms) {
        if (stableOnly && entry.stability != Stability::Stable)
            continue;
        if (!first)
            oss << ",";
        first = false;
        oss << "\"" << jsonEscape(name)
            << "\":" << entry.hist.toJson(entry.boundDigits);
    }
    oss << "}}";
    return oss.str();
}

} // namespace obs
} // namespace naspipe
