#include "common/hash.hpp"

namespace ahsw::common {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state) noexcept {
  for (char c : bytes) {
    state ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  return fnv1a64(bytes, kFnvOffset);
}

std::uint64_t tagged_hash(std::uint8_t tag, std::string_view a) noexcept {
  std::uint64_t h = kFnvOffset;
  h ^= tag;
  h *= kFnvPrime;
  h = fnv1a64(a, h);
  return mix64(h);
}

std::uint64_t tagged_hash(std::uint8_t tag, std::string_view a,
                          std::string_view b) noexcept {
  std::uint64_t h = kFnvOffset;
  h ^= tag;
  h *= kFnvPrime;
  h = fnv1a64(a, h);
  h = fnv1a64(kFieldSeparator, h);
  h = fnv1a64(b, h);
  return mix64(h);
}

}  // namespace ahsw::common
