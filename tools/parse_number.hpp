// Flag parsing shared by the command-line tools. Numbers parse strictly, so
// that a bad number is a config error (exit 1) instead of a silent wrong
// value: std::atol("-1") wraps to a huge count and std::atol("abc") reads
// as 0.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <type_traits>

namespace nessa::tools {

/// What a tool's flag parse decided: run, or exit 0 after --help printed
/// the usage, or exit 1 after an error was reported.
enum class ParseResult { kRun, kHelp, kError };

/// Strict numeric flag value: the whole token must parse, counts take no
/// sign and must fit their type, reals must be finite. On failure prints a
/// "config error:" line naming the flag and returns false.
template <typename T>
bool parse_number(const std::string& flag, const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  bool ok = ec == std::errc{} && ptr == end && text != end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
  if (!ok) {
    std::cerr << "config error: " << flag << ": '" << text << "' is not a "
              << (std::is_floating_point_v<T> ? "finite number"
                                              : "non-negative integer in range")
              << "\n";
  }
  return ok;
}

}  // namespace nessa::tools
