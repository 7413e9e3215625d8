// Formatting helpers shared by the run and sweep HTML reports: everything
// user-controlled is escaped, and numbers are fixed-precision strings so the
// rendered HTML is byte-identical across runs with identical inputs.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace elastisim::stats::report_format {

inline std::string html_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Fixed-precision number (deterministic, compact).
inline std::string num(double v, int precision = 2) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return buffer;
}

/// Fixed two-decimal SVG coordinate.
inline std::string xy(double v) { return num(v, 2); }

}  // namespace elastisim::stats::report_format
