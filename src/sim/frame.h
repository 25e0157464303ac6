// Frames: byte buffers travelling over simulated links, plus a parse-once
// metadata slot.
//
// Frames are reference-counted so a broadcast or multicast replication
// does not copy payload bytes. The bytes are copy-on-write: a holder may
// patch a frame in place (PortLand's PMAC<->AMAC header rewrite) only
// through `exclusive_frame`, which hands out the mutable frame when the
// holder's reference is the sole owner. A frame anyone else still holds —
// a multicast or broadcast replica, a frame a tap kept, a queued copy, a
// pending ARP request — is shared, and its bytes never change under the
// other owners: a rewrite of it copies.
//
// `meta` is a type-erased cache for a header summary: the first device to
// parse a frame attaches its parse result, and every later hop reads the
// summary instead of re-walking the bytes (net::parsed_of). The slot is
// deliberately opaque here so the sim layer stays below net in the
// layering; net/packet.h owns the only type ever stored in it. With the
// parallel engine a multicast replica can reach two shards at once, so
// the lazy fill is an atomic compare-and-swap publish: the first parser
// wins, racers free their candidate and adopt the winner's.
//
// Allocation recycling: frame byte buffers and the Frame+refcount blocks
// themselves cycle through thread-local freelists (`acquire_frame_bytes`,
// the BlockPool behind `make_frame`), so steady-state forwarding performs
// no heap allocation per frame when frames are built and retired on the
// same thread. (In the sharded engine a frame built on one worker and
// retired on another lands in the second thread's pool, and the first
// allocates afresh.) Thread-local pools need no locks and keep the event
// schedule — and therefore determinism — untouched.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace portland::sim {

using FrameBytes = std::vector<std::uint8_t>;

namespace detail {

/// Retired frame buffers, capacity intact, waiting for reuse.
struct BytePool {
  std::vector<FrameBytes> buffers;
};
inline BytePool& byte_pool() {
  thread_local BytePool pool;
  return pool;
}
/// Bounds keep a pool from hoarding: at most this many buffers, and only
/// sanely-sized ones (a stray jumbo allocation is returned to the heap).
constexpr std::size_t kBytePoolMaxBuffers = 1024;
constexpr std::size_t kBytePoolMaxCapacity = 16 * 1024;

/// Per-thread freelists of recycled memory blocks holding `n` objects of
/// type T, one list per power-of-two `n`, threaded through the free
/// blocks themselves. It backs both single-object blocks (a Frame and its
/// refcount, a parse summary) and the spill blocks of InlineFifo
/// (sim/train.h). Bounded by bytes: a release that would push the
/// calling thread's pool past kMaxBytes frees the block instead, and a
/// count that is not a power of two always goes to the heap. A block may
/// be taken on one thread and released on another (a frame built on one
/// shard dies on the next; a train appended at a window barrier drains
/// on its shard's worker); each thread's pool absorbs what retires on it.
/// Once a thread's pool is destroyed, later releases on that thread go
/// straight to the heap.
template <typename T>
class BlockPool {
 public:
  static constexpr std::size_t kMaxBytes = 1 << 20;

  [[nodiscard]] static T* acquire(std::size_t n) {
    if (pooled(n)) {
      Local& l = local();
      FreeBlock*& head = l.heads[class_of(n)];
      if (head != nullptr) {
        FreeBlock* b = head;
        head = b->next;
        l.bytes -= bytes_of(n);
        --l.blocks;
        return reinterpret_cast<T*>(b);
      }
    }
    return static_cast<T*>(::operator new(bytes_of(n)));
  }

  static void release(T* block, std::size_t n) noexcept {
    if (pooled(n)) {
      Local& l = local();
      if (l.bytes + bytes_of(n) <= kMaxBytes) {
        FreeBlock*& head = l.heads[class_of(n)];
        head = ::new (static_cast<void*>(block)) FreeBlock{head};
        l.bytes += bytes_of(n);
        ++l.blocks;
        return;
      }
    }
    ::operator delete(static_cast<void*>(block));
  }

  /// Blocks parked in the calling thread's pool (tests, diagnostics).
  [[nodiscard]] static std::size_t pooled_blocks() {
    return dead_ ? 0 : local().blocks;
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  static constexpr int kClasses = 32;
  static_assert(sizeof(T) >= sizeof(FreeBlock));
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  struct Local {
    FreeBlock* heads[kClasses] = {};
    std::size_t bytes = 0;
    std::size_t blocks = 0;
    ~Local() {
      dead_ = true;
      for (FreeBlock* head : heads) {
        while (head != nullptr) {
          FreeBlock* next = head->next;
          ::operator delete(static_cast<void*>(head));
          head = next;
        }
      }
    }
  };
  static Local& local() {
    thread_local Local l;
    return l;
  }
  static bool pooled(std::size_t n) {
    return !dead_ && std::has_single_bit(n) && n < (std::size_t{1} << kClasses);
  }
  static std::size_t bytes_of(std::size_t n) { return n * sizeof(T); }
  static int class_of(std::size_t n) { return std::countr_zero(n); }
  static inline thread_local bool dead_ = false;
};

/// Minimal STL allocator over BlockPool. Used via std::allocate_shared
/// so a Frame (or a parse summary) and its shared_ptr control block come
/// from — and return to — the pool as one block.
template <typename T>
struct RecycleAllocator {
  using value_type = T;

  RecycleAllocator() noexcept = default;
  template <typename U>
  RecycleAllocator(const RecycleAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return BlockPool<T>::acquire(n);
  }
  void deallocate(T* ptr, std::size_t n) noexcept {
    BlockPool<T>::release(ptr, n);
  }

  template <typename U>
  friend bool operator==(const RecycleAllocator&,
                         const RecycleAllocator<U>&) noexcept {
    return true;
  }
};

}  // namespace detail

/// A cleared byte buffer, recycled from a retired frame when one is
/// available. Frame builders start from this instead of a fresh vector so
/// steady-state frame construction reuses capacity instead of allocating.
[[nodiscard]] inline FrameBytes acquire_frame_bytes() {
  auto& pool = detail::byte_pool().buffers;
  if (pool.empty()) return {};
  FrameBytes bytes = std::move(pool.back());
  pool.pop_back();
  bytes.clear();
  return bytes;
}

/// Donates a buffer's capacity to the calling thread's pool (bounded; an
/// empty or oversized buffer is simply dropped).
inline void recycle_frame_bytes(FrameBytes&& bytes) {
  if (bytes.capacity() == 0 ||
      bytes.capacity() > detail::kBytePoolMaxCapacity) {
    return;
  }
  auto& pool = detail::byte_pool().buffers;
  if (pool.size() < detail::kBytePoolMaxBuffers) {
    pool.push_back(std::move(bytes));
  }
}

struct Frame {
  FrameBytes bytes;

  Frame() = default;
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;
  ~Frame() {
    reset_meta();
    recycle_frame_bytes(std::move(bytes));
  }

  [[nodiscard]] std::size_t size() const { return bytes.size(); }
  [[nodiscard]] const std::uint8_t* data() const { return bytes.data(); }

  // --- parse-once cache slot (see file comment) ------------------------
  using MetaDeleter = void (*)(const void*);

  /// The attached summary, or nullptr. Acquire pairs with the publishing
  /// CAS so the summary's fields are fully visible.
  [[nodiscard]] const void* meta() const {
    return meta_.load(std::memory_order_acquire);
  }

  /// Publishes `candidate` if the slot is still empty and returns the
  /// slot's final occupant. On a lost race the candidate is released via
  /// `deleter` and the winner's pointer is returned instead. The deleter
  /// is also how the frame frees the summary on destruction.
  const void* attach_meta(const void* candidate, MetaDeleter deleter) const {
    const void* expected = nullptr;
    if (meta_.compare_exchange_strong(expected, candidate,
                                      std::memory_order_release,
                                      std::memory_order_acquire)) {
      // Only the winner writes the deleter; the destructor reads it after
      // the last reference drops, which the refcount already orders.
      deleter_ = deleter;
      return candidate;
    }
    deleter(candidate);
    return expected;
  }

  /// The attached summary, writable. Only reachable through a
  /// non-const frame, i.e. one `exclusive_frame` proved sole-owned, so no
  /// other holder can be reading the summary while it is patched.
  [[nodiscard]] void* mutable_meta() {
    return const_cast<void*>(meta_.load(std::memory_order_acquire));
  }

  /// Frees the attached summary, if any. Destructor-only in spirit: not
  /// safe concurrently with attach_meta on other threads.
  void reset_meta() const {
    if (const void* p = meta_.load(std::memory_order_acquire)) {
      deleter_(p);
      meta_.store(nullptr, std::memory_order_relaxed);
    }
  }

  // --- flight-recorder trace id ----------------------------------------
  /// The frame's trace id, or 0 when untraced. Purely observational —
  /// nothing on the data plane branches on it.
  [[nodiscard]] std::uint64_t trace_id() const {
    return trace_id_.load(std::memory_order_relaxed);
  }

  /// First writer wins (a multicast replica can be claimed from two
  /// shards at once); returns the id actually installed.
  std::uint64_t adopt_trace_id(std::uint64_t candidate) const {
    std::uint64_t expected = 0;
    if (trace_id_.compare_exchange_strong(expected, candidate,
                                          std::memory_order_relaxed)) {
      return candidate;
    }
    return expected;
  }

 private:
  mutable std::atomic<const void*> meta_{nullptr};
  mutable MetaDeleter deleter_ = nullptr;
  mutable std::atomic<std::uint64_t> trace_id_{0};
};

using FramePtr = std::shared_ptr<const Frame>;

/// A fresh mutable Frame whose storage (object + control block, one
/// combined allocation) comes from the thread-local block pool.
[[nodiscard]] inline std::shared_ptr<Frame> alloc_frame() {
  return std::allocate_shared<Frame>(detail::RecycleAllocator<Frame>{});
}

[[nodiscard]] inline FramePtr make_frame(FrameBytes bytes) {
  auto f = alloc_frame();
  f->bytes = std::move(bytes);
  return f;
}

/// Copy-on-write gate: the mutable frame behind `frame` when the caller's
/// reference is its only owner, nullptr when the frame is shared (replicas,
/// taps, queued or pending copies) and must be copied instead of patched.
///
/// A bare `use_count() == 1` is a relaxed load: it proves no other owner is
/// left but does not order the last other owner's reads of the bytes
/// before our writes. Taking and dropping a probe reference does — both
/// are acquire-release read-modify-writes on the count, so the drop
/// synchronizes with every earlier release of it, on any shard thread.
/// No new owner can appear meanwhile: every other reference is ours.
[[nodiscard]] inline Frame* exclusive_frame(const FramePtr& frame) {
  FramePtr probe = frame;
  const bool sole = probe.use_count() == 2;
  probe.reset();
  return sole ? const_cast<Frame*>(frame.get()) : nullptr;
}

[[nodiscard]] inline std::span<const std::uint8_t> frame_span(
    const FramePtr& f) {
  return {f->bytes.data(), f->bytes.size()};
}

}  // namespace portland::sim
