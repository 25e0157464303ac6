#include "host/tcp.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "common/logging.h"
#include "sim/snapshot.h"

namespace portland::host {

using net::seq_leq;
using net::seq_lt;
using net::TcpHeader;

namespace {
/// Two periods of the payload pattern, built at compile time.
constexpr auto kPatternTable = [] {
  std::array<std::uint8_t, 2 * TcpConnection::kPatternPeriod> table{};
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = TcpConnection::payload_byte(i);
  }
  return table;
}();
}  // namespace

std::span<const std::uint8_t> TcpConnection::payload_view(
    std::uint64_t offset, std::size_t len) {
  assert(len <= kPatternPeriod);
  return {kPatternTable.data() + offset % kPatternPeriod, len};
}

bool TcpConnection::payload_matches(std::uint64_t offset,
                                    std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const std::size_t n = std::min(bytes.size(), kPatternPeriod);
    if (std::memcmp(bytes.data(), payload_view(offset, n).data(), n) != 0) {
      return false;
    }
    offset += n;
    bytes = bytes.subspan(n);
  }
  return true;
}

TcpConnection::TcpConnection(sim::Simulator& sim, TcpEndpointKey key,
                             TcpConfig config, SegmentSink sink,
                             std::uint32_t isn)
    : sim_(&sim),
      key_(key),
      config_(config),
      sink_(std::move(sink)),
      isn_(isn),
      rto_(config.initial_rto),
      rto_timer_(sim) {
  assert(config_.mss <= kPatternPeriod);  // one payload_view per segment
  cwnd_ = config_.mss * config_.initial_cwnd_segments;
  ssthresh_ = 0x7FFFFFFF;
}

void TcpConnection::connect() {
  assert(state_ == State::kClosed);
  state_ = State::kSynSent;
  snd_una_ = isn_;
  snd_nxt_ = isn_ + 1;
  snd_max_ = isn_ + 1;
  send_segment(isn_, 0, /*fin=*/false, /*syn=*/true, /*is_retransmission=*/false);
  arm_rto();
}

void TcpConnection::accept_syn(const TcpHeader& syn) {
  assert(state_ == State::kClosed);
  state_ = State::kSynReceived;
  irs_ = syn.seq;
  rcv_nxt_ = syn.seq + 1;
  peer_window_ = syn.window;
  snd_una_ = isn_;
  snd_nxt_ = isn_ + 1;
  snd_max_ = isn_ + 1;
  send_segment(isn_, 0, /*fin=*/false, /*syn=*/true, /*is_retransmission=*/false);
  arm_rto();
}

void TcpConnection::send(std::uint64_t bytes) {
  assert(!fin_queued_ && "send() after close()");
  stream_len_ += bytes;
  if (state_ == State::kEstablished) pump();
}

void TcpConnection::close() {
  fin_queued_ = true;
  if (state_ == State::kEstablished) pump();
}

void TcpConnection::enter_established() {
  state_ = State::kEstablished;
  snd_una_ = isn_ + 1;
  snd_nxt_ = isn_ + 1;
  snd_max_ = isn_ + 1;
  snd_offset_base_ = 0;
  rto_timer_.cancel();
  backoff_ = 0;
}

std::uint32_t TcpConnection::flight_size() const { return snd_nxt_ - snd_una_; }

std::uint64_t TcpConnection::offset_of(std::uint32_t seq_wire) const {
  return snd_offset_base_ + (seq_wire - snd_una_);
}

void TcpConnection::send_segment(std::uint32_t seq_wire, std::uint32_t len,
                                 bool fin, bool syn, bool is_retransmission) {
  TcpHeader h;
  h.src_port = key_.local_port;
  h.dst_port = key_.remote_port;
  h.seq = seq_wire;
  h.window = config_.advertised_window;
  h.flags.syn = syn;
  h.flags.fin = fin;
  if (state_ != State::kSynSent || is_retransmission || !syn) {
    // Everything except the very first SYN carries an ACK.
    if (state_ != State::kSynSent) {
      h.flags.ack = true;
      h.ack = rcv_nxt_;
    }
  }
  // The payload is a view into the static pattern table; the sink copies
  // it once, into the frame buffer.
  std::span<const std::uint8_t> payload;
  if (len > 0) {
    payload = payload_view(offset_of(seq_wire), len);
    h.flags.psh = true;
  }

  ++segments_sent_;
  if (is_retransmission) ++retransmissions_;

  // RTT timing (Karn's rule: never time retransmissions).
  if (!is_retransmission && (len > 0 || syn || fin) && timed_sent_at_ < 0 &&
      backoff_ == 0) {
    timed_seq_ = seq_wire + len + (syn ? 1 : 0) + (fin ? 1 : 0);
    timed_sent_at_ = sim_->now();
  }

  sink_(h, payload);
}

void TcpConnection::send_ack() {
  TcpHeader h;
  h.src_port = key_.local_port;
  h.dst_port = key_.remote_port;
  h.seq = snd_nxt_;
  h.ack = rcv_nxt_;
  h.flags.ack = true;
  h.window = config_.advertised_window;
  sink_(h, {});
}

void TcpConnection::pump() {
  if (state_ != State::kEstablished) return;
  const std::uint32_t window = std::min<std::uint32_t>(cwnd_, peer_window_);
  bool sent = false;
  while (true) {
    const std::uint64_t next_offset = offset_of(snd_nxt_);
    if (next_offset >= stream_len_) break;  // no unsent data
    if (flight_size() >= window) break;
    const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        {config_.mss, stream_len_ - next_offset,
         static_cast<std::uint64_t>(window - flight_size())}));
    if (len == 0) break;
    // Bytes at or below snd_max_ have been on the wire before
    // (go-back-N retransmission); only time genuinely new data.
    const bool is_retx = net::seq_lt(snd_nxt_, snd_max_);
    send_segment(snd_nxt_, len, /*fin=*/false, /*syn=*/false, is_retx);
    snd_nxt_ += len;
    if (net::seq_lt(snd_max_, snd_nxt_)) snd_max_ = snd_nxt_;
    sent = true;
  }
  // Send FIN once all data is out.
  if (fin_queued_ && !fin_sent_ && offset_of(snd_nxt_) >= stream_len_ &&
      flight_size() < window) {
    send_segment(snd_nxt_, 0, /*fin=*/true, /*syn=*/false,
                 /*is_retransmission=*/fin_ever_sent_);
    fin_wire_seq_ = snd_nxt_;
    fin_ever_sent_ = true;
    snd_nxt_ += 1;
    if (net::seq_lt(snd_max_, snd_nxt_)) snd_max_ = snd_nxt_;
    fin_sent_ = true;
    state_ = State::kFinSent;
    sent = true;
  }
  if (sent || flight_size() > 0) arm_rto();
}

void TcpConnection::arm_rto() {
  rto_timer_.schedule_after(rto_, [this] { on_rto(); });
}

void TcpConnection::on_rto() {
  if (state_ == State::kClosed || state_ == State::kFinished) return;
  ++timeouts_;
  timed_sent_at_ = -1;  // Karn: abandon the timed sample

  if (state_ == State::kSynSent || state_ == State::kSynReceived) {
    if (++syn_retries_ > config_.max_syn_retries) {
      state_ = State::kClosed;
      return;
    }
    rto_ = std::min(rto_ * 2, config_.rto_max);
    send_segment(isn_, 0, /*fin=*/false, /*syn=*/true,
                 /*is_retransmission=*/true);
    arm_rto();
    return;
  }

  if (flight_size() == 0) return;

  // Loss: multiplicative back-off, collapse cwnd, and go-back-N — rewind
  // snd_nxt_ to snd_una_ so pump() retransmits the whole outstanding
  // window as the window re-opens (one crawling segment per backed-off
  // RTO would otherwise take forever after a burst loss).
  ssthresh_ = std::max(flight_size() / 2, 2 * config_.mss);
  cwnd_ = config_.mss;
  ++backoff_;
  rto_ = std::min(rto_ * 2, config_.rto_max);
  dup_acks_ = 0;
  in_recovery_ = false;

  snd_nxt_ = snd_una_;
  if (fin_sent_ && seq_leq(snd_una_, fin_wire_seq_)) {
    // The unacked FIN sits beyond the rewound point; pump() re-sends it.
    fin_sent_ = false;
    if (state_ == State::kFinSent) state_ = State::kEstablished;
  }
  ++retransmissions_;
  pump();
  arm_rto();
}

void TcpConnection::update_rtt(SimDuration sample) {
  const double s = static_cast<double>(sample);
  if (!rtt_valid_) {
    srtt_ = s;
    rttvar_ = s / 2;
    rtt_valid_ = true;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - s);
    srtt_ = 0.875 * srtt_ + 0.125 * s;
  }
  const double rto = srtt_ + std::max(4 * rttvar_, 1.0);
  rto_ = std::clamp(static_cast<SimDuration>(rto), config_.rto_min,
                    config_.rto_max);
}

void TcpConnection::on_ack(const TcpHeader& h) {
  if (!h.flags.ack) return;
  peer_window_ = h.window;
  const std::uint32_t ack = h.ack;

  if (seq_lt(snd_una_, ack) && seq_leq(ack, snd_max_)) {
    // New data acknowledged. ACKs are accepted up to snd_max_, the
    // highest sequence ever transmitted: after a go-back-N rewind the
    // receiver's cumulative ACK can legitimately sit beyond snd_nxt_.
    std::uint32_t newly = ack - snd_una_;
    std::uint32_t data_bytes = newly;
    // The SYN and FIN each occupy one sequence number but carry no data.
    const bool fin_covered = fin_ever_sent_ && ack == fin_wire_seq_ + 1;
    if (fin_covered) data_bytes -= 1;
    bytes_acked_ += data_bytes;
    snd_offset_base_ += data_bytes;
    snd_una_ = ack;
    if (seq_lt(snd_nxt_, snd_una_)) snd_nxt_ = snd_una_;
    if (fin_covered) fin_sent_ = true;  // acked: never re-send
    dup_acks_ = 0;

    if (timed_sent_at_ >= 0 && seq_leq(timed_seq_, ack)) {
      update_rtt(sim_->now() - timed_sent_at_);
      timed_sent_at_ = -1;
    }
    backoff_ = 0;

    if (in_recovery_) {
      if (seq_lt(ack, recovery_point_)) {
        // NewReno partial ACK: the next hole is known lost — retransmit it
        // immediately instead of stalling for the RTO.
        const std::uint64_t una_offset = offset_of(snd_una_);
        if (una_offset < stream_len_ && flight_size() > 0) {
          const std::uint32_t len =
              static_cast<std::uint32_t>(std::min<std::uint64_t>(
                  {config_.mss, stream_len_ - una_offset,
                   static_cast<std::uint64_t>(flight_size())}));
          send_segment(snd_una_, len, /*fin=*/false, /*syn=*/false,
                       /*is_retransmission=*/true);
        }
        arm_rto();
        return;  // hold cwnd at ssthresh_ during recovery
      }
      in_recovery_ = false;
      cwnd_ = ssthresh_;
    }

    // Congestion window growth.
    if (cwnd_ < ssthresh_) {
      cwnd_ += config_.mss;  // slow start
    } else {
      cwnd_ += std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(
                 static_cast<std::uint64_t>(config_.mss) * config_.mss / cwnd_));
    }

    if (flight_size() == 0 && offset_of(snd_una_) >= stream_len_ &&
        (!fin_queued_ || fin_sent_)) {
      rto_timer_.cancel();
    } else if (flight_size() > 0) {
      arm_rto();
    }
    pump();
    return;
  }

  if (ack == snd_una_ && flight_size() > 0) {
    // Duplicate ACK.
    if (++dup_acks_ == 3 && !in_recovery_) {
      // Fast retransmit + NewReno recovery until the pre-loss high water.
      in_recovery_ = true;
      recovery_point_ = snd_nxt_;
      ssthresh_ = std::max(flight_size() / 2, 2 * config_.mss);
      cwnd_ = ssthresh_ + 3 * config_.mss;
      const std::uint64_t una_offset = offset_of(snd_una_);
      if (una_offset < stream_len_) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                {config_.mss, stream_len_ - una_offset,
                 static_cast<std::uint64_t>(flight_size())}));
        send_segment(snd_una_, len, /*fin=*/false, /*syn=*/false,
                     /*is_retransmission=*/true);
      } else if (fin_sent_) {
        send_segment(snd_una_, 0, /*fin=*/true, /*syn=*/false,
                     /*is_retransmission=*/true);
      }
      arm_rto();
    }
  }
}

void TcpConnection::deliver_in_order(std::uint32_t seq_wire,
                                     std::span<const std::uint8_t> payload,
                                     bool fin) {
  if (fin) {
    peer_fin_seen_ = true;
    peer_fin_seq_ = seq_wire + static_cast<std::uint32_t>(payload.size());
  }

  if (!payload.empty()) {
    // A retransmission may overlap already-delivered data (go-back-N with
    // changed segmentation); trim to the undelivered tail.
    if (seq_lt(seq_wire, rcv_nxt_) &&
        seq_lt(rcv_nxt_, seq_wire + static_cast<std::uint32_t>(payload.size()))) {
      payload = payload.subspan(rcv_nxt_ - seq_wire);
      seq_wire = rcv_nxt_;
    }
    if (seq_wire == rcv_nxt_) {
      // In-order: verify the deterministic pattern and deliver.
      if (!payload_matches(bytes_delivered_, payload)) {
        payload_corruption_ = true;
      }
      bytes_delivered_ += payload.size();
      rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
      // Drain contiguous out-of-order segments.
      auto it = ooo_.find(rcv_nxt_);
      while (it != ooo_.end()) {
        if (!payload_matches(bytes_delivered_, it->second)) {
          payload_corruption_ = true;
        }
        bytes_delivered_ += it->second.size();
        rcv_nxt_ += static_cast<std::uint32_t>(it->second.size());
        ooo_.erase(it);
        it = ooo_.find(rcv_nxt_);
      }
      // Discard stashed segments the cumulative point has passed.
      for (auto stale = ooo_.begin(); stale != ooo_.end();) {
        const std::uint32_t end =
            stale->first + static_cast<std::uint32_t>(stale->second.size());
        stale = seq_leq(end, rcv_nxt_) ? ooo_.erase(stale) : std::next(stale);
      }
      if (deliver_cb_) deliver_cb_(bytes_delivered_);
    } else if (seq_lt(rcv_nxt_, seq_wire)) {
      // Out of order: stash a copy (bounded by the advertised window).
      ++ooo_segments_;
      if (ooo_.size() < 1024 && ooo_.find(seq_wire) == ooo_.end()) {
        ooo_[seq_wire].assign(payload.begin(), payload.end());
      }
    }
    // Older duplicates need no action beyond the ACK below.
  }

  if (peer_fin_seen_ && rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ += 1;
    peer_fin_seen_ = false;  // consume exactly once
    if (state_ == State::kFinSent && flight_size() == 0) {
      state_ = State::kFinished;
    }
    if (finished_cb_) finished_cb_();
  }

  send_ack();
}

void TcpConnection::handle_segment(const TcpHeader& h,
                                   std::span<const std::uint8_t> payload) {
  switch (state_) {
    case State::kClosed:
      return;
    case State::kSynSent:
      if (h.flags.syn && h.flags.ack && h.ack == snd_nxt_) {
        irs_ = h.seq;
        rcv_nxt_ = h.seq + 1;
        peer_window_ = h.window;
        enter_established();
        send_ack();
        pump();
      }
      return;
    case State::kSynReceived:
      if (h.flags.ack && h.ack == snd_nxt_) {
        enter_established();
        // Fall through to normal processing: the completing ACK may carry
        // data.
        if (!payload.empty() || h.flags.fin) {
          deliver_in_order(h.seq, payload, h.flags.fin);
        }
        pump();
      } else if (h.flags.syn) {
        // Retransmitted SYN: re-send SYN|ACK.
        send_segment(isn_, 0, false, true, /*is_retransmission=*/true);
      }
      return;
    case State::kEstablished:
    case State::kFinSent:
    case State::kFinished:
      if (h.flags.syn && h.flags.ack) {
        // Retransmitted SYN|ACK: our completing ACK was lost.
        send_ack();
        return;
      }
      on_ack(h);
      if (!payload.empty() || h.flags.fin) {
        deliver_in_order(h.seq, payload, h.flags.fin);
      }
      return;
  }
}

void TcpConnection::save_state(sim::SnapshotWriter& w) const {
  w.u8(static_cast<std::uint8_t>(state_));

  w.u32(isn_);
  w.u32(snd_una_);
  w.u32(snd_nxt_);
  w.u32(snd_max_);
  w.u64(stream_len_);
  w.u64(snd_offset_base_);
  w.u8(fin_queued_ ? 1 : 0);
  w.u8(fin_sent_ ? 1 : 0);
  w.u8(fin_ever_sent_ ? 1 : 0);
  w.u32(fin_wire_seq_);
  w.u32(cwnd_);
  w.u32(ssthresh_);
  w.u16(peer_window_);
  w.u32(static_cast<std::uint32_t>(dup_acks_));
  w.u8(in_recovery_ ? 1 : 0);
  w.u32(recovery_point_);
  w.i64(rto_);
  w.u32(static_cast<std::uint32_t>(backoff_));
  w.f64(srtt_);
  w.f64(rttvar_);
  w.u8(rtt_valid_ ? 1 : 0);
  w.u32(timed_seq_);
  w.i64(timed_sent_at_);
  rto_timer_.save_state(w);
  w.u32(static_cast<std::uint32_t>(syn_retries_));

  w.u32(irs_);
  w.u32(rcv_nxt_);
  w.u8(peer_fin_seen_ ? 1 : 0);
  w.u32(peer_fin_seq_);
  w.u32(static_cast<std::uint32_t>(ooo_.size()));
  for (const auto& [seq, payload] : ooo_) {
    w.u32(seq);
    w.blob(payload);
  }

  w.u64(bytes_acked_);
  w.u64(bytes_delivered_);
  w.u64(ooo_segments_);
  w.u64(segments_sent_);
  w.u64(retransmissions_);
  w.u64(timeouts_);
  w.u8(payload_corruption_ ? 1 : 0);
}

void TcpConnection::restore_state(sim::SnapshotReader& r) {
  state_ = static_cast<State>(r.u8());

  isn_ = r.u32();
  snd_una_ = r.u32();
  snd_nxt_ = r.u32();
  snd_max_ = r.u32();
  stream_len_ = r.u64();
  snd_offset_base_ = r.u64();
  fin_queued_ = r.u8() != 0;
  fin_sent_ = r.u8() != 0;
  fin_ever_sent_ = r.u8() != 0;
  fin_wire_seq_ = r.u32();
  cwnd_ = r.u32();
  ssthresh_ = r.u32();
  peer_window_ = r.u16();
  dup_acks_ = static_cast<int>(r.u32());
  in_recovery_ = r.u8() != 0;
  recovery_point_ = r.u32();
  rto_ = r.i64();
  backoff_ = static_cast<int>(r.u32());
  srtt_ = r.f64();
  rttvar_ = r.f64();
  rtt_valid_ = r.u8() != 0;
  timed_seq_ = r.u32();
  timed_sent_at_ = r.i64();
  rto_timer_.restore_at(r, [this] { on_rto(); });
  syn_retries_ = static_cast<int>(r.u32());

  irs_ = r.u32();
  rcv_nxt_ = r.u32();
  peer_fin_seen_ = r.u8() != 0;
  peer_fin_seq_ = r.u32();
  ooo_.clear();
  const std::uint32_t n_ooo = r.count(4 + 4);
  for (std::uint32_t i = 0; i < n_ooo && r.ok(); ++i) {
    const std::uint32_t seq = r.u32();
    ooo_[seq] = r.blob();
  }

  bytes_acked_ = r.u64();
  bytes_delivered_ = r.u64();
  ooo_segments_ = r.u64();
  segments_sent_ = r.u64();
  retransmissions_ = r.u64();
  timeouts_ = r.u64();
  payload_corruption_ = r.u8() != 0;
}

}  // namespace portland::host
