// Trains: batched back-to-back frame deliveries on one link direction.
//
// The classic engine schedules one event per frame hop. At line rate a
// link direction carries long runs of frames whose arrival times are
// strictly increasing (serialization on the transmitter orders them), so
// the scheduler ends up popping, dispatching, and re-inserting thousands
// of near-identical events. A Train collapses such a run into one
// scheduler node: the deque holds one entry per frame, each stamped with
// the exact (time, seq) the classic engine would have used, and the node
// sits in the queue at the *front* entry's (time, seq). Dispatch walks
// the deque, delivering every entry that is strictly earlier than both
// the shard's next queued event and the current execution bound; the
// moment an entry ties or trails another event — or crosses a window
// boundary — the node is re-pushed at that entry's own (time, seq) and
// ordinary scheduling resumes. Because every entry carries its classic
// sequence number, burst mode schedules the *identical* event sequence:
// same timestamps, same tie order, same traces (Soak pins this).
//
// A Train belongs to one link direction and is driven through a plain
// function pointer + context rather than a per-frame closure, so a train
// of N frames costs one scheduler insert, one pop, and zero SmallFn
// constructions instead of N of each.
#pragma once

#include <cstdint>
#include <deque>

#include "common/units.h"
#include "sim/frame.h"

namespace portland::sim {

struct DataEventOwner;

/// One pending frame delivery inside a train. `seq` is the owning
/// shard's sequence number, consumed at append exactly where the classic
/// engine would have consumed it. `epoch` snapshots the link direction's
/// failure epoch at transmit time: a mismatch at delivery means the
/// direction failed while the frame was in flight, and it is lost.
struct TrainEntry {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
  FramePtr frame;
};

/// A batch of in-flight frames on one link direction. Entries are kept
/// in strictly increasing arrival-time order (the transmitter's
/// serialization guarantees it; appends that would violate it fall back
/// to classic per-frame scheduling). `scheduled` is true while exactly
/// one scheduler node references this train — always at the front
/// entry's (time, seq).
struct Train {
  using Deliver = void (*)(void* ctx, int from_side, const TrainEntry& entry);

  void* ctx = nullptr;          // the owning Link
  Deliver deliver = nullptr;
  int from_side = 0;
  bool scheduled = false;
  /// Chunks recycle through a thread-local pool: a train that holds one
  /// frame at a time (an LDM every period) would otherwise free and
  /// allocate a deque chunk every few frames.
  std::deque<TrainEntry, detail::RecycleAllocator<TrainEntry>> entries;
  /// Serializable identity of `deliver`: when set, per-frame fallbacks
  /// (mailbox cap/monotonicity misses) schedule a data event against this
  /// owner instead of an opaque closure, keeping the queue checkpointable.
  DataEventOwner* owner = nullptr;
  std::uint32_t owner_kind = 0;
};

}  // namespace portland::sim
