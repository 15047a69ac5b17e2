/**
 * @file
 * Small string formatting helpers shared by the table/CSV writers and
 * the benchmark harnesses.
 */

#ifndef NASPIPE_COMMON_STRING_UTIL_H
#define NASPIPE_COMMON_STRING_UTIL_H

#include <cstdint>
#include <string>
#include <vector>

namespace naspipe {

/** Format a double with @p digits digits after the decimal point. */
std::string formatFixed(double value, int digits);

/** Format as a percentage ("94.3%") with @p digits fraction digits. */
std::string formatPercent(double fraction, int digits = 1);

/** Format a byte count with a binary-unit suffix ("57.8G", "474M"). */
std::string formatBytes(std::uint64_t bytes);

/** Format a multiplier factor ("7.8x"). */
std::string formatFactor(double factor, int digits = 1);

/** Split @p text on @p sep (no empty-trailing suppression). */
std::vector<std::string> splitString(const std::string &text, char sep);

/** Strip leading/trailing whitespace. */
std::string trimString(const std::string &text);

/** Left-pad @p text with spaces to @p width. */
std::string padLeft(const std::string &text, std::size_t width);

/** Right-pad @p text with spaces to @p width. */
std::string padRight(const std::string &text, std::size_t width);

/** True if @p text starts with @p prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/** Join the items with @p sep between them. */
std::string joinStrings(const std::vector<std::string> &items,
                        const std::string &sep);

/**
 * Strict base-10 whole-number parse for outside input (command lines,
 * job specs, fault specs): all of @p text or nothing. Rejects empty
 * input, whitespace, trailing characters, a '+' sign, a '-' sign on
 * the unsigned overload and values outside the target type's range.
 * @p out is written only on success.
 */
bool parseWholeNumber(const std::string &text, int &out);
bool parseWholeNumber(const std::string &text, std::uint64_t &out);

} // namespace naspipe

#endif // NASPIPE_COMMON_STRING_UTIL_H
