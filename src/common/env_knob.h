// Strict parsers for the GENEALOG_* environment knobs (engine_options.h).
//
// `value` is the raw variable, nullptr when unset. Unset or empty yields
// `fallback` (an empty variable passed through by a wrapper script keeps the
// default); a documented spelling yields its value; anything else throws
// std::invalid_argument naming the variable and the accepted values, so a
// typo fails loudly instead of silently running some other configuration.
// EnvFlagKnob / EnvCountKnob read the variable itself.
#ifndef GENEALOG_COMMON_ENV_KNOB_H_
#define GENEALOG_COMMON_ENV_KNOB_H_

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace genealog {

[[noreturn]] inline void ThrowBadKnob(const char* name, const char* value,
                                      const char* accepted) {
  throw std::invalid_argument(std::string(name) + "=\"" + value +
                              "\" is not a valid value; accepted: " +
                              accepted);
}

// One of the values in `choices`, spelled exactly (case-sensitive).
template <typename T>
T ParseChoiceKnob(const char* name, const char* value,
                  std::initializer_list<std::pair<std::string_view, T>> choices,
                  T fallback) {
  if (value == nullptr || value[0] == '\0') return fallback;
  std::string accepted;
  for (const auto& [spelling, choice] : choices) {
    if (spelling == value) return choice;
    if (!accepted.empty()) accepted += ", ";
    accepted += spelling;
  }
  ThrowBadKnob(name, value, accepted.c_str());
}

// "1" (on) or "0" (off).
inline bool ParseFlagKnob(const char* name, const char* value, bool fallback) {
  return ParseChoiceKnob<bool>(name, value, {{"0", false}, {"1", true}},
                               fallback);
}

// A non-negative decimal integer of at most 2^63 - 1: digits only, no sign,
// no whitespace, no suffix.
inline uint64_t ParseCountKnob(const char* name, const char* value,
                               uint64_t fallback) {
  if (value == nullptr || value[0] == '\0') return fallback;
  constexpr uint64_t kMax = std::numeric_limits<int64_t>::max();
  uint64_t n = 0;
  for (const char* p = value; *p != '\0'; ++p) {
    const unsigned digit = static_cast<unsigned char>(*p) - '0';
    if (digit > 9 || n > (kMax - digit) / 10) {
      ThrowBadKnob(name, value, "a non-negative decimal integer");
    }
    n = n * 10 + digit;
  }
  return n;
}

inline bool EnvFlagKnob(const char* name, bool fallback) {
  return ParseFlagKnob(name, std::getenv(name), fallback);
}
inline uint64_t EnvCountKnob(const char* name, uint64_t fallback) {
  return ParseCountKnob(name, std::getenv(name), fallback);
}

}  // namespace genealog

#endif  // GENEALOG_COMMON_ENV_KNOB_H_
