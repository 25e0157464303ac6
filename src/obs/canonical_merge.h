// Canonical (time, shard, seq) replay of per-shard event runs.
//
// Observers that buffer events per shard (one writer thread each) replay
// them in one total order that is the same for any worker count: by time,
// then shard index, then the shard's own append sequence. Each shard's run
// is already in append order, and normally time-ordered as well, so the
// total order is a k-way merge of the runs: O(n log k), no copy, instead
// of a sort of everything drained. Appends made from barrier context are
// not proven time-monotone, so a run that is not time-ordered is stably
// sorted by time first; stability keeps append order among equal times.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace portland::obs {

/// Calls `visit(event, shard)` for every event of runs 0..shard_count-1
/// in canonical order. `run_of(s)` returns shard s's buffer (a
/// std::vector in append order), which may be reordered in place as
/// described above; `time_of(event)` returns the event's time.
template <typename RunOf, typename TimeOf, typename Visit>
void merge_canonical(std::uint32_t shard_count, RunOf&& run_of,
                     TimeOf&& time_of, Visit&& visit) {
  using Run = std::remove_reference_t<decltype(run_of(std::uint32_t{0}))>;
  using Event = typename Run::value_type;
  using Time = std::decay_t<decltype(time_of(std::declval<const Event&>()))>;
  struct Head {
    Time time;
    std::uint32_t shard;
    std::size_t next;
  };

  const auto earlier = [&](const Event& x, const Event& y) {
    return time_of(x) < time_of(y);
  };
  std::vector<Head> heads;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    Run& run = run_of(s);
    if (run.empty()) continue;
    if (!std::is_sorted(run.begin(), run.end(), earlier)) {
      std::stable_sort(run.begin(), run.end(), earlier);
    }
    heads.push_back(Head{time_of(run.front()), s, 0});
  }
  if (heads.size() == 1) {
    const std::uint32_t s = heads.front().shard;
    for (const Event& e : run_of(s)) visit(e, s);
    return;
  }

  // Min-heap on (time, shard): the comparator says "comes later".
  const auto later = [](const Head& x, const Head& y) {
    return x.time != y.time ? x.time > y.time : x.shard > y.shard;
  };
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Head& h = heads.back();
    const Run& run = run_of(h.shard);
    visit(run[h.next], h.shard);
    if (++h.next < run.size()) {
      h.time = time_of(run[h.next]);
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
  }
}

}  // namespace portland::obs
