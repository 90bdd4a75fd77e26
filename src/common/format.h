#ifndef WLM_COMMON_FORMAT_H_
#define WLM_COMMON_FORMAT_H_

#include <string>

namespace wlm {

// Number formatting for exports and trace details, built on std::to_chars.
// [charconv.to.chars] defines to_chars with a format and a precision to
// produce exactly what printf prints for the matching conversion in the C
// locale, so these are byte-identical to the snprintf calls they replace,
// without printf's format parsing and locale machinery. Precision is at
// most 17.

/// Appends `value` as printf's "%.<precision>f" prints it.
void AppendFixed(std::string& out, double value, int precision);
/// `value` as printf's "%.<precision>f" prints it.
std::string FormatFixed(double value, int precision);
/// `value` as printf's "%.<precision>g" prints it.
std::string FormatGeneral(double value, int precision);

}  // namespace wlm

#endif  // WLM_COMMON_FORMAT_H_
