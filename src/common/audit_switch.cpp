#include "common/audit_switch.hpp"

#include <cctype>
#include <cstdlib>
#include <string>

namespace ahsw::common {

bool audit_enabled() {
  static const bool enabled = [] {
    // Read once, at the first call.
    const char* v = std::getenv("AHSW_AUDIT");  // NOLINT(concurrency-mt-unsafe)
    if (v == nullptr) return false;
    std::string s(v);
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return !(s.empty() || s == "0" || s == "off" || s == "false" || s == "no");
  }();
  return enabled;
}

}  // namespace ahsw::common
