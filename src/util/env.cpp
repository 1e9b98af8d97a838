#include "util/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace olp::env {

bool has(const char* name) { return std::getenv(name) != nullptr; }

std::string str(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : std::string(raw);
}

long integer(const char* name, long fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  // Out-of-range values saturate to LONG_MIN/LONG_MAX with errno == ERANGE;
  // a silently saturated limit is a misconfiguration, not a setting.
  if (errno == ERANGE) return fallback;
  return value;
}

int int_value(const char* name, int fallback) {
  const long value = integer(name, fallback);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return fallback;
  }
  return static_cast<int>(value);
}

double number(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0') return fallback;
  // Overflow saturates to +/-HUGE_VAL with errno == ERANGE — reject it.
  // (Underflow also sets ERANGE but yields a representable ~0 value, which
  // we keep: a tiny configured number is still a number.)
  if (errno == ERANGE && std::abs(value) == HUGE_VAL) return fallback;
  return value;
}

bool flag(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw[0] != '0';
}

}  // namespace olp::env
