// Names for the instances of value-parameterized tests, built from the
// parameter's fields. gtest's default name is the instance index, which
// CTest (gtest_discover_tests) would replace by the printed parameter — for
// a struct a byte dump, padding included, that changes from build to
// build. Test names may hold only letters, digits and '_'.
#pragma once

#include <string>
#include <string_view>

namespace ahsw::test_names {

/// `text` with every character that is not a letter or digit replaced by
/// '_' ("frequency-chain" -> "frequency_chain").
inline std::string param_name(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (!alnum) c = '_';
  }
  return out;
}

/// A triple pattern's shape: each bound position by its letter, each
/// variable by 'x' ("spx" for (s, p, ?o)).
inline std::string shape_name(bool s, bool p, bool o) {
  return std::string(s ? "s" : "x") + (p ? "p" : "x") + (o ? "o" : "x");
}

}  // namespace ahsw::test_names
