// Open-addressing hash map for unsigned-integer keys on simulation hot paths.
//
// std::unordered_map costs a pointer chase per node plus an allocation per
// insert; on hot per-event paths (the lock table, the waits-for index) that
// dominates the profile. FlatMap stores {key, value} pairs inline in a
// power-of-two slot array kept at most half full, probes linearly from a
// SplitMix64-mixed home slot, and erases with backward-shift deletion so
// probe chains stay gap-free without tombstones. Values are stored by value:
// keep them small and movable (an index into a pool, a plain id).
//
// One key value is reserved as the empty-slot sentinel and must never be
// inserted (asserted). Iteration order is slot order: deterministic for a
// given operation history, but not meaningful — callers needing a stable
// processing order must sort what they collect.
//
// A caller that looks a key up and may erase it later in the same
// operation can keep the key's slot position instead of probing twice:
// position() / insert_position() find it, value_at() and erase_at() use
// it. A position names the key's slot until the next insert or erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace hls {

template <typename Key, typename T>
class FlatMap {
 public:
  explicit FlatMap(Key empty_key) : empty_(empty_key) {
    slots_.resize(kInitialCap, Slot{empty_, T{}});
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  /// Slot position of `key`, or kAbsent.
  [[nodiscard]] std::size_t position(Key key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (slots_[i].key != empty_) {
      if (slots_[i].key == key) {
        return i;
      }
      i = (i + 1) & mask;
    }
    return kAbsent;
  }

  /// The value in the slot at `pos`, a position of a present key.
  [[nodiscard]] T& value_at(std::size_t pos) { return slots_[pos].value; }

  /// Pointer to the value for `key`, or nullptr. Invalidated by any insert
  /// or erase.
  [[nodiscard]] T* find(Key key) {
    const std::size_t pos = position(key);
    return pos == kAbsent ? nullptr : &slots_[pos].value;
  }

  [[nodiscard]] const T* find(Key key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Slot position of `key`, default-constructing its value on first use.
  /// `inserted`, when non-null, tells the caller whether the value is
  /// brand new.
  std::size_t insert_position(Key key, bool* inserted = nullptr) {
    HLS_ASSERT(key != empty_, "FlatMap: inserting the empty-key sentinel");
    if (2 * (count_ + 1) > slots_.size()) {
      grow();
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (slots_[i].key != empty_) {
      if (slots_[i].key == key) {
        if (inserted != nullptr) {
          *inserted = false;
        }
        return i;
      }
      i = (i + 1) & mask;
    }
    slots_[i].key = key;
    slots_[i].value = T{};
    ++count_;
    if (inserted != nullptr) {
      *inserted = true;
    }
    return i;
  }

  /// Reference to the value for `key`, default-constructing it on first use
  /// (the unordered_map::operator[] idiom). The reference is invalidated by
  /// any subsequent insert or erase.
  T& find_or_insert(Key key, bool* inserted = nullptr) {
    return slots_[insert_position(key, inserted)].value;
  }

  /// Removes `key`; returns false when absent.
  bool erase(Key key) {
    const std::size_t pos = position(key);
    if (pos == kAbsent) {
      return false;
    }
    erase_at(pos);
    return true;
  }

  /// Removes the key at `pos`, a position of a present key.
  void erase_at(std::size_t pos) {
    const std::size_t mask = slots_.size() - 1;
    // Backward-shift deletion: an entry may fill the hole only if its probe
    // path passes through the hole (cyclically, ideal .. j covers hole);
    // otherwise it would become unreachable from its ideal slot.
    std::size_t hole = pos;
    std::size_t j = pos;
    for (;;) {
      j = (j + 1) & mask;
      if (slots_[j].key == empty_) {
        break;
      }
      const std::size_t ideal = hash(slots_[j].key) & mask;
      if (((j - ideal) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].key = empty_;
    slots_[hole].value = T{};
    --count_;
  }

  /// Visits (key, value) pairs in slot order (see header comment).
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != empty_) {
        f(s.key, s.value);
      }
    }
  }

 private:
  struct Slot {
    Key key;
    T value;
  };

  static constexpr std::size_t kInitialCap = 16;  // power of two

  /// SplitMix64 finalizer: sequential keys scatter uniformly.
  static std::uint64_t hash(Key key) {
    std::uint64_t x = static_cast<std::uint64_t>(key) + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(old.size() * 2, Slot{empty_, T{}});
    const std::size_t mask = slots_.size() - 1;
    for (Slot& s : old) {
      if (s.key == empty_) {
        continue;
      }
      std::size_t i = hash(s.key) & mask;
      while (slots_[i].key != empty_) {
        i = (i + 1) & mask;
      }
      slots_[i] = std::move(s);
    }
  }

  Key empty_;
  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

}  // namespace hls
