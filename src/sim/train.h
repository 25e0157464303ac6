// Trains: batched back-to-back frame deliveries on one link direction.
//
// The classic engine schedules one event per frame hop. At line rate a
// link direction carries long runs of frames whose arrival times are
// strictly increasing (serialization on the transmitter orders them), so
// the scheduler ends up popping, dispatching, and re-inserting thousands
// of near-identical events. A Train collapses such a run into one
// scheduler node: its FIFO holds one entry per frame, each stamped with
// the exact (time, seq) the classic engine would have used, and the node
// sits in the queue at the *front* entry's (time, seq). Dispatch walks
// the FIFO, delivering every entry that is strictly earlier than both
// the shard's next queued event and the current execution bound; the
// moment an entry ties or trails another event — or crosses a window
// boundary — the node is re-pushed at that entry's own (time, seq) and
// ordinary scheduling resumes. Because every entry carries its classic
// sequence number, burst mode schedules the *identical* event sequence:
// same timestamps, same tie order, same traces (Soak pins this).
//
// A Train belongs to one link direction and lives inside its Link. Its
// entries are delivered through the owner's data-event hook rather than
// per-frame closures, so a train of N frames costs one scheduler insert,
// one pop, and zero SmallFn constructions instead of N of each.
//
// Storage: most trains hold one or two frames at a time (an LDM every
// period, a request and its reply), so the entries live in an
// InlineFifo — a ring whose first slots sit inside the Link object. A
// longer run (a host's back-to-back burst) spills into a power-of-two
// block from the bounded thread-local detail::BlockPool (sim/frame.h),
// and the block goes back to the pool the moment the train drains: an
// idle link owns no heap memory.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "common/units.h"
#include "sim/frame.h"

namespace portland::sim {

struct DataEventOwner;

/// FIFO ring whose first N slots live inline. Pushing past N moves the
/// contents into a detail::BlockPool spill block of twice the capacity
/// (doubling again whenever it fills); popping the last element hands the
/// block back to the pool and returns to the inline slots. Not copyable or
/// movable: the ring may point into its own inline storage.
template <typename T, std::uint32_t N>
class InlineFifo {
  static_assert(N != 0 && (N & (N - 1)) == 0, "N must be a power of two");
  static_assert(std::is_nothrow_move_constructible_v<T>);

 public:
  InlineFifo() = default;
  InlineFifo(const InlineFifo&) = delete;
  InlineFifo& operator=(const InlineFifo&) = delete;
  ~InlineFifo() { clear(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  /// True while the contents live in a pooled block, not inline.
  [[nodiscard]] bool spilled() const { return data_ != inline_data(); }

  /// The i-th element from the front.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T&& value) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(&data_[(head_ + size_) & (cap_ - 1)]))
        T(std::move(value));
    ++size_;
  }

  /// Removes and returns the front element; releases the spill block
  /// when that empties the ring.
  [[nodiscard]] T pop_front() {
    assert(size_ != 0);
    T& slot = data_[head_];
    T value = std::move(slot);
    slot.~T();
    head_ = (head_ + 1) & (cap_ - 1);
    if (--size_ == 0) reset();
    return value;
  }

  /// Destroys every element and returns to the inline slots.
  void clear() {
    for (std::uint32_t i = 0; i < size_; ++i) {
      data_[(head_ + i) & (cap_ - 1)].~T();
    }
    size_ = 0;
    reset();
  }

 private:
  [[nodiscard]] T* inline_data() {
    return reinterpret_cast<T*>(inline_);
  }
  [[nodiscard]] const T* inline_data() const {
    return reinterpret_cast<const T*>(inline_);
  }

  void grow() {
    const std::uint32_t cap = cap_ * 2;
    T* block = detail::BlockPool<T>::acquire(cap);
    for (std::uint32_t i = 0; i < size_; ++i) {
      T& src = data_[(head_ + i) & (cap_ - 1)];
      ::new (static_cast<void*>(&block[i])) T(std::move(src));
      src.~T();
    }
    if (spilled()) detail::BlockPool<T>::release(data_, cap_);
    data_ = block;
    cap_ = cap;
    head_ = 0;
  }

  void reset() {
    if (spilled()) detail::BlockPool<T>::release(data_, cap_);
    data_ = inline_data();
    cap_ = N;
    head_ = 0;
  }

  T* data_ = inline_data();
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

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
/// to per-frame data events). `scheduled` is true while exactly one
/// scheduler node references this train — always at the front entry's
/// (time, seq). Each entry is delivered as the data event
/// `owner->execute_data_event(kind, entry.epoch, entry.frame, {})`, the
/// same call a per-frame fallback schedules, so the two paths share one
/// delivery routine and a train stays checkpointable.
struct Train {
  DataEventOwner* owner = nullptr;
  std::uint32_t kind = 0;
  bool scheduled = false;
  InlineFifo<TrainEntry, 2> entries;
};

}  // namespace portland::sim
