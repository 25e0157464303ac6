#include "net/ipv4.h"

#include <array>

#include "net/checksum.h"

namespace portland::net {

void Ipv4Header::serialize(ByteWriter& w) const {
  // Built on the stack so the checksum can cover it before it is
  // appended: no temporary heap buffer per frame.
  std::array<std::uint8_t, kSize> hdr{};
  const auto put16 = [&hdr](std::size_t at, std::uint16_t v) {
    hdr[at] = static_cast<std::uint8_t>(v >> 8);
    hdr[at + 1] = static_cast<std::uint8_t>(v);
  };
  const auto put32 = [&put16](std::size_t at, std::uint32_t v) {
    put16(at, static_cast<std::uint16_t>(v >> 16));
    put16(at + 2, static_cast<std::uint16_t>(v));
  };
  hdr[0] = 0x45;  // version 4, IHL 5
  hdr[1] = dscp;
  put16(2, total_length);
  put16(4, identification);
  // Bytes 6-7, flags/fragment offset: never fragmented in this fabric.
  hdr[8] = ttl;
  hdr[9] = protocol;
  // Bytes 10-11: checksum, filled in below.
  put32(12, src.value());
  put32(16, dst.value());

  put16(10, internet_checksum(hdr));
  w.bytes(hdr);
}

bool Ipv4Header::deserialize(ByteReader& r, Ipv4Header* out) {
  if (r.remaining_size() < kSize) return false;
  const std::span<const std::uint8_t> raw = r.remaining().subspan(0, kSize);

  const std::uint8_t ver_ihl = r.u8();
  out->dscp = r.u8();
  out->total_length = r.u16();
  out->identification = r.u16();
  const std::uint16_t flags_frag = r.u16();
  out->ttl = r.u8();
  out->protocol = r.u8();
  const std::uint16_t wire_csum = r.u16();
  out->src = Ipv4Address::deserialize(r);
  out->dst = Ipv4Address::deserialize(r);
  if (!r.ok()) return false;
  if (ver_ihl != 0x45) return false;
  if ((flags_frag & 0x3FFF) != 0) return false;  // no fragments
  (void)wire_csum;
  // Re-checksumming the raw header must yield zero when intact.
  if (internet_checksum(raw) != 0) return false;
  return true;
}

}  // namespace portland::net
