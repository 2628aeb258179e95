// Pending-event set for the discrete-event kernel.
//
// A calendar queue (Brown 1988) ordered by (time, sequence number): an
// array of buckets, each holding the unsorted events of one width_-second
// day, cycled through year after year. Push appends to the destination
// bucket and pop scans the current day's bucket for its minimum, so both
// are O(1) amortized at any event density — the binary heap this replaced
// spent a third of event-dense runs in sift_down. The sequence tiebreak
// makes same-timestamp events fire in scheduling order; selection always
// compares the full (time, seq) key, so firing order is exactly the total
// order the heap produced, independent of bucket geometry.
//
// The key is one 128-bit integer: the time's bit pattern above the
// sequence number. Event times are non-negative (push asserts it), and
// non-negative doubles order like their bit patterns once -0.0 is folded
// onto +0.0, so integer order on the key is (time, seq) order. The bucket
// scan picks its minimum with conditional moves on that key: which entry
// wins is data-dependent, and a branch per entry would mispredict about as
// often as it is taken.
//
// Events live in a slot table: an EventId encodes (slot, generation), and
// a slot is reused with a bumped generation once its event fires or is
// cancelled, so stale ids are rejected exactly. Cancellation is eager: the
// slot records its event's time, which names the one bucket holding the
// entry (a handful of entries), and cancel swap-removes it there. Every
// bucketed entry is therefore live, and scans never consult the slot
// table. Callbacks are move-only UniqueFunctions parked in the slot table;
// bucket entries are 24-byte PODs, so resizing and scanning never move a
// closure.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/unique_function.hpp"

namespace hls {

class EventQueue {
 public:
  using Callback = UniqueFunction<void()>;

  EventQueue();

  /// Inserts an event at `time` (a non-negative number, +inf allowed),
  /// moving `callback` into its slot; returns an id usable with cancel().
  EventId push(SimTime time, Callback&& callback);

  /// Removes a pending event and releases its callback. Returns false if
  /// the event already fired, was already cancelled, or never existed.
  bool cancel(EventId id);

  /// True when no events are pending.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  [[nodiscard]] std::size_t size() const { return live_; }

  /// Timestamp of the earliest event; must not be called when empty.
  [[nodiscard]] SimTime next_time();

  /// Removes and returns the earliest event. Must not be called when
  /// empty. The returned callback is ready to invoke.
  struct Popped {
    SimTime time;
    EventId id;
    Callback callback;
  };
  Popped pop();

 private:
  /// Firing-order key: (time bits << 64) | seq. GCC and Clang provide the
  /// type; __extension__ keeps -Wpedantic quiet about it.
  __extension__ using Key = unsigned __int128;

  /// Bucket entry: plain data, cheap to scan and to shuffle on resize.
  /// The callback lives in the slot table, not here.
  struct Entry {
    std::uint64_t time_bits;  // bit pattern of the (non-negative) time
    std::uint64_t seq;
    std::uint32_t slot;

    [[nodiscard]] SimTime when() const { return std::bit_cast<SimTime>(time_bits); }
    [[nodiscard]] Key key() const { return Key{time_bits} << 64 | seq; }
  };

  struct Slot {
    Callback callback;
    SimTime time = 0.0;            // the pending event's, to find its bucket
    std::uint32_t generation = 0;  // bumped on every allocation
    bool live = false;             // an event is pending in this slot
  };

  static constexpr std::size_t kMinBuckets = 8;

  /// EventIds pack (slot + 1) in the high 32 bits and the slot's generation
  /// in the low 32; the +1 keeps every valid id distinct from
  /// kInvalidEventId (0).
  static EventId encode_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) + 1) << 32 | generation;
  }

  /// Day number of `time` on the current calendar. Monotone in time (zero
  /// is day 0, far-future times clamp to a ceiling that still leaves
  /// headroom for a full year scan), and used for both
  /// placement and the scan qualification test so float truncation can
  /// never disagree between the two.
  [[nodiscard]] std::uint64_t day_of(SimTime time) const;

  std::uint32_t allocate_slot();
  void free_slot(std::uint32_t slot);
  /// Halves the calendar (or more) once it is mostly empty buckets.
  void shrink_if_sparse();
  /// Finds the earliest entry and caches its position; requires live_ > 0.
  void locate_min();
  /// Rebuckets every entry into `nbuckets` buckets with a bucket width
  /// re-estimated from the pending population.
  void rebuild(std::size_t nbuckets);

  std::vector<std::vector<Entry>> buckets_;
  std::size_t bucket_mask_;      // buckets_.size() - 1 (power of two)
  double width_ = 1.0;           // seconds per bucket
  double inv_width_ = 1.0;       // 1 / width_, the only form used in day_of
  std::uint64_t cur_day_ = 0;    // scan floor: no entry on an earlier day

  // Cached position of the earliest entry, so next_time() + pop() costs one
  // scan. Push keeps it fresh; a cancel in the cached bucket drops it.
  bool min_valid_ = false;
  std::size_t min_bucket_ = 0;
  std::size_t min_pos_ = 0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> scratch_;        // rebuild staging, kept to reuse capacity
  std::vector<double> times_scratch_;  // width estimation staging, ditto
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;  // pending events, one bucket entry each
};

}  // namespace hls
