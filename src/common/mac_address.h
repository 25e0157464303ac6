// 48-bit Ethernet MAC address value type.
//
// MacAddress is a trivially-copyable value type used both for hosts'
// actual MACs (AMACs) and for PortLand's hierarchical pseudo-MACs (PMACs);
// the PMAC field encoding lives in core/pmac.h.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

namespace portland {

class ByteReader;
class ByteWriter;

class MacAddress {
 public:
  static constexpr std::size_t kSize = 6;

  constexpr MacAddress() = default;
  explicit constexpr MacAddress(std::array<std::uint8_t, kSize> bytes)
      : bytes_(bytes) {}

  /// Builds an address from the low 48 bits of `v` (big-endian layout:
  /// bits 47..40 become byte 0): a shift, a byte swap and a 6-byte store.
  [[nodiscard]] static MacAddress from_u64(std::uint64_t v) {
    std::array<std::uint8_t, kSize> b;
    const std::uint64_t wire = to_big_endian(v << 16);
    std::memcpy(b.data(), &wire, kSize);
    return MacAddress(b);
  }

  /// The broadcast address ff:ff:ff:ff:ff:ff.
  [[nodiscard]] static MacAddress broadcast() {
    return from_u64(0xFFFF'FFFF'FFFFULL);
  }

  /// The all-zero address (used as "unset").
  [[nodiscard]] static constexpr MacAddress zero() { return MacAddress(); }

  /// Parses "aa:bb:cc:dd:ee:ff"; returns zero() on malformed input.
  [[nodiscard]] static MacAddress parse(const std::string& text);

  /// The address as a 48-bit big-endian integer (byte 0 in bits
  /// 47..40): a 6-byte load and a byte swap.
  [[nodiscard]] std::uint64_t to_u64() const {
    std::uint64_t wire = 0;
    std::memcpy(&wire, bytes_.data(), kSize);
    return to_big_endian(wire) >> 16;
  }

  [[nodiscard]] bool is_broadcast() const {
    return to_u64() == 0xFFFF'FFFF'FFFFULL;
  }
  [[nodiscard]] bool is_zero() const { return to_u64() == 0; }

  /// IEEE group bit: set for multicast and broadcast destinations.
  [[nodiscard]] constexpr bool is_multicast() const {
    return (bytes_[0] & 0x01) != 0;
  }

  [[nodiscard]] const std::array<std::uint8_t, kSize>& bytes() const {
    return bytes_;
  }

  [[nodiscard]] std::string to_string() const;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static MacAddress deserialize(ByteReader& r);

  friend constexpr bool operator==(const MacAddress& a, const MacAddress& b) {
    return a.bytes_ == b.bytes_;
  }
  friend constexpr bool operator!=(const MacAddress& a, const MacAddress& b) {
    return !(a == b);
  }
  friend bool operator<(const MacAddress& a, const MacAddress& b) {
    return a.to_u64() < b.to_u64();
  }

 private:
  /// Host order <-> big-endian (an involution: the same swap both ways).
  [[nodiscard]] static std::uint64_t to_big_endian(std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::little) {
      return __builtin_bswap64(v);
    } else {
      return v;
    }
  }

  std::array<std::uint8_t, kSize> bytes_{};
};

}  // namespace portland

template <>
struct std::hash<portland::MacAddress> {
  std::size_t operator()(const portland::MacAddress& m) const noexcept {
    return std::hash<std::uint64_t>{}(m.to_u64());
  }
};
