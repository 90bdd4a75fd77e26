#include "common/format.h"

#include <cassert>
#include <charconv>

namespace wlm {

namespace {

// "%.17f" of -DBL_MAX: a sign, 309 integer digits, a point, 17 decimals.
constexpr int kMaxPrecision = 17;
constexpr size_t kMaxChars = 1 + 309 + 1 + kMaxPrecision;

void Append(std::string& out, double value, std::chars_format format,
            int precision) {
  assert(precision >= 0 && precision <= kMaxPrecision);
  char buf[kMaxChars];
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value, format, precision);
  out.append(buf, result.ptr);
}

}  // namespace

void AppendFixed(std::string& out, double value, int precision) {
  Append(out, value, std::chars_format::fixed, precision);
}

std::string FormatFixed(double value, int precision) {
  std::string out;
  AppendFixed(out, value, precision);
  return out;
}

std::string FormatGeneral(double value, int precision) {
  std::string out;
  Append(out, value, std::chars_format::general, precision);
  return out;
}

}  // namespace wlm
