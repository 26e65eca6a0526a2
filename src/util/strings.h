#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mmlib {

/// Splits `s` on `delim`; empty pieces are preserved.
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Joins `pieces` with `delim` between them.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view delim);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Formats a byte count as a human readable string, e.g. "14.3 MB".
std::string FormatBytes(uint64_t bytes);

/// Left-pads `s` with spaces to `width` characters.
std::string PadLeft(std::string_view s, size_t width);

/// Right-pads `s` with spaces to `width` characters.
std::string PadRight(std::string_view s, size_t width);

}  // namespace mmlib

