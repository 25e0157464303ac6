#include "sim/link.h"

#include <algorithm>
#include <cassert>

#include "obs/convergence_monitor.h"
#include "obs/flight_recorder.h"
#include "sim/snapshot.h"

namespace portland::sim {

Link::Link(Simulator& sim, Device& a, PortId port_a, Device& b, PortId port_b,
           Config config, const FrameTap* tap)
    : sim_(&sim), config_(config), tap_(tap),
      end_{Endpoint{&a, port_a}, Endpoint{&b, port_b}} {
  assert(config_.bandwidth_bps > 0);
  a.attach_link(port_a, this, 0);
  b.attach_link(port_b, this, 1);
  for (std::uint32_t side = 0; side < 2; ++side) {
    Train& tr = dir_[side].train;
    tr.owner = this;
    tr.kind = side;
  }
  // Deterministic registration: links are constructed in the same order
  // in any process building the same fabric, so the id this assigns
  // resolves serialized in-flight deliveries across a snapshot restore.
  sim_->register_data_owner(this);
}

std::size_t Link::side_index(int side) {
  assert(side == 0 || side == 1);
  return static_cast<std::size_t>(side);
}

SimDuration Link::serialization_time(std::size_t bytes) const {
  const double ns =
      static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps * 1e9;
  return std::max<SimDuration>(1, static_cast<SimDuration>(ns));
}

void Link::transmit(int from_side, const FramePtr& frame) {
  mark_dirty();  // counters/queue/train all move below
  Direction& dir = dir_[side_index(from_side)];
  // transmit() always runs on the sender's shard, so the sender's
  // recorder log is safe to write here.
  Device* sender = end_[side_index(from_side)].device;
  if (!dir.up) {
    ++dir.dropped;
    sender->record_drop(obs::DropReason::kLinkDown, frame,
                        end_[side_index(from_side)].port);
    return;
  }
  const SimTime now = sim_->now();
  dir.settle(now);  // lazily credit frames whose serialization finished
  if (dir.queued_bytes + frame->size() > config_.queue_capacity_bytes) {
    ++dir.dropped;  // drop-tail
    sender->record_drop(obs::DropReason::kQueueFull, frame,
                        end_[side_index(from_side)].port);
    return;
  }

  const SimTime start = std::max(now, dir.busy_until);
  const SimTime tx_done = start + serialization_time(frame->size());
  const SimTime arrival = tx_done + config_.propagation;
  dir.busy_until = tx_done;
  dir.queued_bytes += frame->size();
  dir.drains.push_back(
      PendingDrain{tx_done, static_cast<std::uint32_t>(frame->size())});
  ++dir.tx_frames;
  dir.tx_bytes += frame->size();
  sender->record_hop(obs::HopEvent::kLinkTx, frame,
                     end_[side_index(from_side)].port, dir.queued_bytes);

  const std::uint64_t epoch = dir.epoch;
  Device* receiver = end_[side_index(1 - from_side)].device;
  const PortId rx_port = end_[side_index(1 - from_side)].port;

  // Burst path: append the arrival to this direction's train — one
  // scheduler node per run of back-to-back frames instead of one per
  // frame. Entries carry the exact (time, seq) the classic path below
  // would have used, so the two paths schedule identical sequences.
  if (sim_->burst_enabled() &&
      sim_->train_append(receiver->shard(), arrival, epoch, frame,
                         dir.train)) {
    return;
  }

  // Delivery runs on the receiver's shard, scheduled as a *data event*
  // (serializable — a checkpoint can save and rebuild it) rather than a
  // closure. In the parallel engine a cross-shard arrival parks in the
  // (src,dst) mailbox until the window barrier; execute_data_event's
  // reads of the *sending* direction (up, epoch) are race-free because
  // those fields only change in barrier tasks.
  (void)rx_port;
  sim_->at_shard_data(receiver->shard(), arrival, this,
                      static_cast<std::uint32_t>(from_side), epoch, frame,
                      FrameBytes{});
}

void Link::execute_data_event(std::uint32_t kind, std::uint64_t arg,
                              const FramePtr& frame,
                              const FrameBytes& bytes) {
  (void)bytes;
  // No mark_dirty: a frame reaches here only after a transmit() (which
  // marked the link dirty) or from a restore that saved a non-empty train
  // (which leaves it dirty), so a clean link never delivers.
  const int from_side = static_cast<int>(kind);
  Direction& d = dir_[side_index(from_side)];
  // Frames in flight when the direction failed are lost: `arg` is the
  // direction's epoch at transmit time.
  if (!d.up || d.epoch != arg) return;
  const Endpoint& rx = end_[side_index(1 - from_side)];
  ++*rx.device->rx_frames_cell();
  *rx.device->rx_bytes_cell() += frame->size();
  if (tap_ != nullptr && *tap_) (*tap_)(*this, 1 - from_side, frame);
  rx.device->handle_frame(rx.port, frame);
}

void Link::save_state(SnapshotWriter& w) {
  const SimTime now = sim_->now();
  thread_local std::vector<std::uint8_t> scratch;
  scratch.clear();
  SnapshotWriter bw(scratch);
  for (int side = 0; side < 2; ++side) {
    Direction& d = dir_[side_index(side)];
    // Settling here is idempotent: queued_bytes is only ever read
    // post-settle, so the saved state equals what the next transmit()
    // would have observed anyway.
    d.settle(now);
    bw.u8(d.up ? 1 : 0);
    bw.i64(d.busy_until);
    bw.u64(d.queued_bytes);
    bw.u64(d.tx_frames);
    bw.u64(d.tx_bytes);
    bw.u64(d.dropped);
    bw.u64(d.epoch);
    bw.u32(static_cast<std::uint32_t>(d.drains.size()));
    for (std::size_t i = 0; i < d.drains.size(); ++i) {
      bw.i64(d.drains[i].done);
      bw.u32(d.drains[i].bytes);
    }
    const Train& tr = d.train;
    bw.u32(static_cast<std::uint32_t>(tr.entries.size()));
    for (std::size_t i = 0; i < tr.entries.size(); ++i) {
      const TrainEntry& e = tr.entries[i];
      bw.i64(e.time);
      bw.u64(e.seq);
      bw.u64(e.epoch);
      bw.frame(e.frame);
    }
  }
  w.u64(content_hash(scratch));
  w.blob(scratch);
  // The settle above may have drifted the drain bookkeeping off whatever
  // section this link last restored; be conservative.
  mark_dirty();
}

void Link::restore_state(SnapshotReader& r) {
  const std::uint64_t hash = r.u64();
  const std::uint32_t len = r.u32();
  if (snap_clean_.load(std::memory_order_relaxed) && hash == snap_hash_) {
    // Unchanged since we last restored this exact section (and, by the
    // clean invariant, our trains are empty, so there is nothing to
    // re-anchor): skip it wholesale.
    r.skip(len);
    return;
  }
  for (int side = 0; side < 2; ++side) {
    Direction& d = dir_[side_index(side)];
    d.up = r.u8() != 0;
    d.busy_until = r.i64();
    d.queued_bytes = r.u64();
    d.tx_frames = r.u64();
    d.tx_bytes = r.u64();
    d.dropped = r.u64();
    d.epoch = r.u64();
    d.drains.clear();
    const std::uint32_t n_drains = r.count(8 + 4);
    for (std::uint32_t i = 0; i < n_drains && r.ok(); ++i) {
      const SimTime done = r.i64();
      const std::uint32_t bytes = r.u32();
      d.drains.push_back(PendingDrain{done, bytes});
    }
    Train& tr = d.train;
    tr.entries.clear();
    tr.scheduled = false;
    // Per entry: time, seq, epoch, frame presence flag.
    const std::uint32_t n_entries = r.count(8 + 8 + 8 + 1);
    for (std::uint32_t i = 0; i < n_entries && r.ok(); ++i) {
      TrainEntry e;
      e.time = r.i64();
      e.seq = r.u64();
      e.epoch = r.u64();
      e.frame = r.frame();
      tr.entries.push_back(std::move(e));
    }
    if (!r.ok()) return;
    if (!tr.entries.empty()) {
      // Re-anchor the train node in the *receiver's* shard queue at the
      // front entry's exact saved (time, seq).
      Device* receiver = end_[side_index(1 - side)].device;
      sim_->restore_train_anchor(receiver->shard(), tr);
    }
  }
  snap_hash_ = hash;
  // Only an empty-train link may claim cleanliness: snapshot_clear wipes
  // anchored trains without going through this object.
  snap_clean_.store(
      dir_[0].train.entries.empty() && dir_[1].train.entries.empty(),
      std::memory_order_relaxed);
}

void Link::set_up(bool up) {
  const bool was_up = is_up();
  set_direction_up(0, up);
  set_direction_up(1, up);
  if (was_up != up) {
    // set_up runs in barrier context (main thread between windows), so
    // writing the endpoint shard's monitor buffer is ordered by the
    // window protocol; side 0 keeps the shard choice deterministic.
    if (obs::ConvergenceMonitor* monitor =
            end_[0].device->convergence_monitor()) {
      monitor->on_link_event(
          static_cast<std::uint32_t>(end_[0].device->shard()), sim_->now(),
          end_[0].device->name().c_str(), end_[1].device->name().c_str(),
          up);
    }
    for (int side = 0; side < 2; ++side) {
      // Run each notification "as" the endpoint's shard so any timers or
      // frames it triggers land on the owning shard's queue.
      ShardGuard guard(*sim_, end_[side].device->shard());
      end_[side].device->handle_link_status(end_[side].port, up);
    }
  }
}

void Link::set_direction_up(int from_side, bool up) {
  Direction& dir = dir_[side_index(from_side)];
  if (dir.up == up) return;
  mark_dirty();
  dir.up = up;
  if (!up) {
    ++dir.epoch;  // voids all in-flight frames in this direction
    dir.queued_bytes = 0;
    dir.drains.clear();
    dir.busy_until = sim_->now();
  }
}

}  // namespace portland::sim
