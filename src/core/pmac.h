// PMAC: PortLand's hierarchical Pseudo MAC address (paper §3.2).
//
// 48 bits laid out as pod(16) : position(8) : port(8) : vmid(16).
//   * pod       — the pod of the host's edge switch,
//   * position  — the edge switch's position within its pod,
//   * port      — the edge switch port the host hangs off,
//   * vmid      — multiplexes VMs on one physical port (assigned by the
//                 edge switch, starting at 1).
//
// PMACs encode location, so core/aggregation switches forward on prefixes
// of the address instead of flat per-host entries. Hosts never see PMACs
// except inside ARP replies; edge switches rewrite src AMAC->PMAC at
// ingress and dst PMAC->AMAC at egress.
//
// Distinguishing PMACs from AMACs: host AMACs in this codebase are
// generated with the locally-administered bit set (first octet 0x02), and
// pod numbers stay below 0x0200, so the address spaces cannot collide. The
// fabric never relies on guessing, though — edge switches know which side
// of the rewrite boundary a frame is on.
#pragma once

#include <cstdint>
#include <string>

#include "common/mac_address.h"

namespace portland::core {

struct Pmac {
  std::uint16_t pod = 0;
  std::uint8_t position = 0;
  std::uint8_t port = 0;
  std::uint16_t vmid = 0;

  /// The 48-bit address value, built straight from the fields (equals
  /// `to_mac().to_u64()`).
  [[nodiscard]] std::uint64_t to_u64() const {
    return (static_cast<std::uint64_t>(pod) << 32) |
           (static_cast<std::uint64_t>(position) << 24) |
           (static_cast<std::uint64_t>(port) << 16) | vmid;
  }

  [[nodiscard]] MacAddress to_mac() const {
    return MacAddress::from_u64(to_u64());
  }

  [[nodiscard]] static Pmac from_mac(MacAddress mac) {
    const std::uint64_t v = mac.to_u64();
    Pmac p;
    p.pod = static_cast<std::uint16_t>(v >> 32);
    p.position = static_cast<std::uint8_t>(v >> 24);
    p.port = static_cast<std::uint8_t>(v >> 16);
    p.vmid = static_cast<std::uint16_t>(v);
    return p;
  }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Pmac&, const Pmac&) = default;
};

/// Generates a host AMAC (locally-administered, collision-free with PMACs):
/// 02:00:00 followed by a 24-bit host index.
[[nodiscard]] inline MacAddress make_amac(std::uint32_t host_index) {
  return MacAddress::from_u64(0x0200'0000'0000ULL | (host_index & 0xFFFFFF));
}

/// True when `mac` lies in the PMAC numbering space used by this fabric
/// (pod < 0x0200, i.e. first octet 0x00 or 0x01).
[[nodiscard]] inline bool looks_like_pmac(MacAddress mac) {
  return (mac.to_u64() >> 40) < 0x02 && !mac.is_zero();
}

/// Advances a per-port vmid counter: vmids start at 1 (vmid 0 means
/// "unassigned" in the PMAC encoding) and wrap 0xFFFF -> 1, never back
/// to 0.
[[nodiscard]] inline std::uint16_t next_vmid(std::uint16_t current) {
  return current >= 0xFFFF ? std::uint16_t{1}
                           : static_cast<std::uint16_t>(current + 1);
}

}  // namespace portland::core
