// FIFO ring buffer that keeps its capacity, for queues on per-event paths.
//
// std::deque allocates and frees a node every few elements as a FIFO
// drifts through it (libstdc++'s 512-byte nodes hold four 112-byte CPU
// jobs), and a fresh deque allocates its map and first node at
// construction. Ring keeps its elements in one power-of-two std::vector
// used circularly: pushing and popping never allocate once the ring has
// grown to its working size, and an empty ring owns no heap memory. The
// first growth makes room for 4 elements and each later one doubles,
// moving the elements into order from the front.
//
// Slots outside [front, front + size) hold moved-from elements, so T must
// be default-constructible and move-assignable, and a moved-from T should
// own nothing (true of UniqueFunction and of aggregates of it).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace hls {

template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// The i-th element from the front (0 is the front).
  [[nodiscard]] T& operator[](std::size_t i) { return slots_[slot_of(i)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return slots_[slot_of(i)]; }

  [[nodiscard]] T& front() { return (*this)[0]; }

  void push_back(T&& value) {
    if (size_ == slots_.size()) {
      grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Removes the front element and returns it by move.
  T pop_front() {
    HLS_ASSERT(size_ > 0, "pop_front() on an empty Ring");
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return out;
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;  // power of two

  [[nodiscard]] std::size_t slot_of(std::size_t i) const {
    HLS_ASSERT(i < size_, "Ring index out of range");
    return (head_ + i) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<T> bigger(slots_.empty() ? kFirstCapacity : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move((*this)[i]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hls
