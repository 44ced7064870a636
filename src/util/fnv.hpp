// FNV-1a, the one deterministic fold behind every digest and checksum in
// HADES: campaign checksums, histogram and capture digests, admission
// decision streams, fuzz seed derivation and coverage signals. Words are
// folded as 8 bytes, least significant first, so a digest depends only on
// the values fed in, never on the host's byte order.
#pragma once

#include <cstdint>
#include <string_view>

namespace hades {

class fnv1a {
 public:
  static constexpr std::uint64_t offset_basis = 0xCBF29CE484222325ull;
  static constexpr std::uint64_t prime = 0x100000001B3ull;

  constexpr fnv1a() = default;
  /// Continue a fold from an earlier digest instead of the offset basis.
  constexpr explicit fnv1a(std::uint64_t start) : h_(start) {}

  constexpr fnv1a& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  constexpr fnv1a& mix_bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    return *this;
  }
  [[nodiscard]] constexpr std::uint64_t value() const { return h_; }

 private:
  constexpr void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= prime;
  }

  std::uint64_t h_ = offset_basis;
};

}  // namespace hades
