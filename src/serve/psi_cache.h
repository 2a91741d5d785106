// vmtherm/serve/psi_cache.h
//
// Running-condition-keyed memoization of ψ_stable predictions. The key is
// the raw (unscaled) Eq. (2) feature vector of a host's running condition
// — server spec, VM set, fan count, environment temperature — which is the
// complete input of the stable predictor, so a hit returns exactly the
// value a fresh SVR evaluation would produce. An identical server
// config/VM set/environment therefore costs one hash probe instead of a
// full kernel expansion over every support vector.
//
// Keying discipline: keys hash and compare BITWISE (a word-at-a-time mix
// of the double bit patterns, equality over the same bits). Value semantics
// would be wrong here: -0.0 == 0.0 yet the two can scale to different SVR
// inputs downstream of a min-max range edge, and bitwise keying keeps
// hash/equality trivially consistent.
//
// Eviction: generational clear-on-full. When the table reaches its entry
// budget the whole generation is dropped (slot buffers keep their
// capacity, so a steady-state cache allocates nothing per event). Entries
// can never go stale within an engine: the predictor is immutable for the
// engine's lifetime and the key captures every prediction input.
//
// Thread safety: none — each Shard owns one cache and accesses it under
// its state mutex, exactly like the host table it sits next to.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vmtherm::serve {

/// Fixed-budget open-addressing map: feature-vector bits -> ψ_stable.
/// A zero-capacity cache is valid and never hits (memoization disabled).
class PsiStableCache {
 public:
  explicit PsiStableCache(std::size_t capacity) {
    if (capacity == 0) return;
    // Slot count: next power of two holding `capacity` entries under a
    // 1/2 load factor, so probe chains stay short near the clear point.
    std::size_t slots = 2;
    while (slots < capacity * 2) slots *= 2;
    slots_.resize(slots);
    mask_ = slots - 1;
    budget_ = capacity;
  }

  /// Hash of a key's double bit patterns; pass it to find() and insert().
  /// Mixed a 64-bit word at a time, with a mix step after every word and a
  /// final avalanche, so keys whose low mantissa bits are all zero (the
  /// integer-valued Eq. (2) features) still spread across the low bits
  /// the slot mask keeps.
  static std::uint64_t hash(std::span<const double> key) noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const double v : key) {
      h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0xbf58476d1ce4e5b9ull;
      h ^= h >> 32;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

  /// Pointer to the memoized value for `key`, whose hash() is `h`, or
  /// nullptr on a miss. The pointer is invalidated by the next insert().
  const double* find(std::span<const double> key,
                     std::uint64_t h) const noexcept {
    if (budget_ == 0) return nullptr;
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (!slot.used) return nullptr;
      if (slot.hash == h && keys_equal(slot.key, key)) return &slot.value;
    }
  }

  /// Memoizes `value` for `key`, whose hash() is `h` (a miss reuses the
  /// hash its find() computed). On reaching the entry budget the current
  /// generation is cleared first (capacity of the slot buffers is kept).
  /// Inserting a key that is already present is a no-op — the memoized
  /// value is authoritative for the engine's lifetime.
  void insert(std::span<const double> key, std::uint64_t h, double value) {
    if (budget_ == 0) return;
    if (size_ >= budget_) clear();
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (!slot.used) {
        slot.used = true;
        slot.hash = h;
        slot.key.assign(key.begin(), key.end());
        slot.value = value;
        ++size_;
        return;
      }
      if (slot.hash == h && keys_equal(slot.key, key)) return;
    }
  }

  /// Drops every entry; slot key buffers keep their capacity.
  void clear() noexcept {
    for (Slot& slot : slots_) {
      slot.used = false;
      slot.key.clear();
    }
    size_ = 0;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return budget_; }

  /// Longest probe sequence, in slots, that a find() of a present key
  /// walks (0 when empty). A diagnostic of hash spread; O(slot count).
  std::size_t longest_probe() const noexcept {
    std::size_t longest = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].used) continue;
      const std::size_t home = slots_[i].hash & mask_;
      longest = std::max(longest, ((i - home) & mask_) + 1);
    }
    return longest;
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::vector<double> key;
    double value = 0.0;
    bool used = false;
  };

  /// Bitwise equality, consistent with hash (unlike operator== on
  /// doubles, which conflates -0.0/0.0 and breaks on NaN).
  static bool keys_equal(const std::vector<double>& a,
                         std::span<const double> b) noexcept {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(a[i]) !=
          std::bit_cast<std::uint64_t>(b[i])) {
        return false;
      }
    }
    return true;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t budget_ = 0;  ///< max entries before a generational clear
  std::size_t size_ = 0;
};

}  // namespace vmtherm::serve
