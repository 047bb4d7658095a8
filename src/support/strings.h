/**
 * @file
 * Small string helpers used throughout the library.
 */
#ifndef CASH_SUPPORT_STRINGS_H
#define CASH_SUPPORT_STRINGS_H

#include <cstdint>
#include <string>
#include <vector>

namespace cash {

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/** Split @p s on the single character @p sep (no empty-trailing entry). */
std::vector<std::string> split(const std::string& s, char sep);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(const std::string& s);

/** True when @p s begins with @p prefix. */
bool startsWith(const std::string& s, const std::string& prefix);

/** Format a double with @p digits digits after the decimal point. */
std::string fmtDouble(double v, int digits = 2);

/** Left-pad @p s to width @p w. */
std::string padLeft(const std::string& s, size_t w);

/** Right-pad @p s to width @p w. */
std::string padRight(const std::string& s, size_t w);

/**
 * Registry key of @p name: '-' becomes '_', so pass and lint-rule
 * names spell the two interchangeably.
 */
std::string registryKey(const std::string& name);

} // namespace cash

#endif // CASH_SUPPORT_STRINGS_H
