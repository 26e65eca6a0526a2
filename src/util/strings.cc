#include "util/strings.h"

#include <cstdint>
#include <cstdio>

namespace mmlib {

std::vector<std::string> SplitString(std::string_view s, char delim) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      pieces.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) {
      out += delim;
    }
    out += pieces[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         (s[begin] == ' ' || s[begin] == '\t' || s[begin] == '\n' ||
          s[begin] == '\r')) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t' ||
                         s[end - 1] == '\n' || s[end - 1] == '\r')) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string FormatBytes(uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buffer[32];
  if (unit == 0) {
    std::snprintf(buffer, sizeof(buffer), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f %s", value, kUnits[unit]);
  }
  return buffer;
}

std::string PadLeft(std::string_view s, size_t width) {
  std::string out;
  if (s.size() < width) {
    out.assign(width - s.size(), ' ');
  }
  out += s;
  return out;
}

std::string PadRight(std::string_view s, size_t width) {
  std::string out(s);
  if (out.size() < width) {
    out.append(width - out.size(), ' ');
  }
  return out;
}

}  // namespace mmlib
