// Streaming statistics accumulators and named counters.
//
// `Accumulator` keeps count/mean/variance (Welford) plus min/max without
// storing samples. `CounterSet` is a string-keyed map of monotonically
// increasing counters used by devices to expose packet/byte/drop counts to
// tests and benches. Lookups are heterogeneous (`std::less<>`), so a
// literal or `std::string_view` name never builds a `std::string`; only
// the first insertion of a key allocates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace portland {

class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  void reset();

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class CounterSet {
 public:
  using Map = std::map<std::string, std::uint64_t, std::less<>>;

  /// Adds `delta` to counter `name`, creating it at zero if absent.
  void add(std::string_view name, std::uint64_t delta = 1) {
    cell(name) += delta;
  }

  /// Stable pointer to the counter cell for `name`, creating it at zero.
  /// Callers on per-frame paths cache the handle once and bump it
  /// directly, skipping the string-keyed lookup. Handles stay valid for
  /// the CounterSet's lifetime (the map is node-based and reset() zeroes
  /// values instead of erasing them).
  [[nodiscard]] std::uint64_t* handle(std::string_view name) {
    return &cell(name);
  }

  /// add() through a caller-owned cache: the first call resolves (and
  /// lazily creates) the cell and stores it in `cell`, later calls bump
  /// it directly. The key appears exactly when add() would create it.
  void add_cached(std::uint64_t*& cell, std::string_view name,
                  std::uint64_t delta = 1) {
    if (cell == nullptr) cell = handle(name);
    *cell += delta;
  }

  /// Current value; zero if the counter has never been touched.
  [[nodiscard]] std::uint64_t get(std::string_view name) const;

  /// All counters, sorted by name (map iteration order).
  [[nodiscard]] const Map& all() const {
    return counters_;
  }

  [[nodiscard]] std::size_t size() const { return counters_.size(); }

  /// Order-independent fingerprint of the key *set* (sum of per-name
  /// FNV-1a hashes; keys are only ever inserted, never erased). Two sets
  /// with equal size and equal fingerprint hold the same names in the
  /// same (sorted) order, which lets snapshot restore skip per-name
  /// matching entirely and assign values positionally.
  [[nodiscard]] std::uint64_t key_fingerprint() const {
    return key_fingerprint_;
  }

  /// Stable cell pointers in key (sorted) order, built lazily and reused
  /// until the key set grows. Snapshot restore walks this flat array for
  /// positional value assignment instead of chasing map nodes.
  [[nodiscard]] const std::vector<std::uint64_t*>& cells_in_order() {
    if (!flat_valid_) {
      flat_.clear();
      flat_.reserve(counters_.size());
      for (auto& [name, value] : counters_) flat_.push_back(&value);
      flat_valid_ = true;
    }
    return flat_;
  }

  void reset();

  /// Snapshot-restore cursor: assigns saved values back in sorted-name
  /// order. Restored sets almost always carry exactly the names already
  /// present (same code paths ran), so the common case is a pure cursor
  /// walk with no per-name lookup and no string allocation; a name the
  /// set has never seen falls back to an ordinary keyed insert. The
  /// caller reset()s first; names absent from the image stay zero.
  class RestoreCursor {
   public:
    explicit RestoreCursor(CounterSet& c) : c_(&c), it_(c.counters_.begin()) {}
    void set(std::string_view name, std::uint64_t value) {
      while (it_ != c_->counters_.end() && it_->first < name) ++it_;
      if (it_ != c_->counters_.end() && it_->first == name) {
        it_->second = value;
        ++it_;
      } else {
        // Inserting before it_ never invalidates it (node-based map).
        c_->counters_.emplace_hint(it_, std::string(name), value);
        c_->key_fingerprint_ += name_hash(name);
        c_->flat_valid_ = false;
      }
    }

   private:
    CounterSet* c_;
    Map::iterator it_;
  };

 private:
  friend class RestoreCursor;

  /// FNV-1a; stable across processes and builds (snapshot images embed
  /// these via key_fingerprint()).
  [[nodiscard]] static std::uint64_t name_hash(std::string_view name) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : name) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
    return h;
  }

  /// Find-or-insert keeping the key fingerprint in sync — every key
  /// insertion funnels through here (or RestoreCursor::set).
  [[nodiscard]] std::uint64_t& cell(std::string_view name) {
    const auto it = counters_.lower_bound(name);
    if (it != counters_.end() && it->first == name) return it->second;
    key_fingerprint_ += name_hash(name);
    flat_valid_ = false;
    return counters_.emplace_hint(it, name, 0)->second;
  }

  Map counters_;
  std::uint64_t key_fingerprint_ = 0;
  std::vector<std::uint64_t*> flat_;  // see cells_in_order()
  bool flat_valid_ = false;
};

/// Computes the p-th percentile (0..100) of `values` by sorting a copy.
/// Returns 0 for an empty vector.
[[nodiscard]] double percentile(std::vector<double> values, double p);

}  // namespace portland
