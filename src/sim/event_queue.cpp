#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace hls {

namespace {

/// Day numbers stay below this so a year scan (`day + nbuckets`) can never
/// wrap a 64-bit counter.
constexpr double kMaxDay = 4.6e18;

/// Sentinel for "no qualifying entry found yet" during bucket scans.
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets), bucket_mask_(kMinBuckets - 1) {}

std::uint64_t EventQueue::day_of(SimTime time) const {
  const double scaled = time * inv_width_;
  if (!(scaled > 0.0)) {
    return 0;  // time zero
  }
  if (scaled >= kMaxDay) {
    return static_cast<std::uint64_t>(kMaxDay);
  }
  return static_cast<std::uint64_t>(scaled);
}

std::uint32_t EventQueue::allocate_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    HLS_ASSERT(slots_.size() < 0xFFFFFFFFu, "event slot space exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  HLS_ASSERT(!s.live, "allocating a live event slot");
  ++s.generation;  // invalidates every id issued for previous occupants
  s.live = true;
  return slot;
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.callback = Callback{};
  s.live = false;
  free_slots_.push_back(slot);
}

EventId EventQueue::push(SimTime time, Callback&& callback) {
  // The key orders non-negative times only; this also rejects NaN.
  HLS_ASSERT(time >= 0.0, "event time is NaN or negative");
  time += 0.0;  // -0.0 -> +0.0, which it ties with
  const std::uint32_t slot = allocate_slot();
  slots_[slot].callback = std::move(callback);
  slots_[slot].time = time;
  const std::uint64_t day = day_of(time);
  std::vector<Entry>& bucket = buckets_[day & bucket_mask_];
  const Entry& entry =
      bucket.emplace_back(Entry{std::bit_cast<std::uint64_t>(time), next_seq_++, slot});
  ++live_;
  if (day < cur_day_) {
    cur_day_ = day;  // push behind the scan floor (non-monotonic callers)
  }
  // A strictly earlier time beats the cached min; an equal time loses on
  // the sequence tiebreak, so the cache stays correct untouched.
  if (min_valid_ && entry.key() < buckets_[min_bucket_][min_pos_].key()) {
    min_bucket_ = day & bucket_mask_;
    min_pos_ = bucket.size() - 1;
  }
  if (live_ > 2 * buckets_.size()) {
    rebuild(2 * buckets_.size());
  }
  return encode_id(slot, slots_[slot].generation);
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t slot_plus_one = id >> 32;
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) {
    return false;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slot_plus_one - 1);
  const Slot& s = slots_[slot];
  const std::uint32_t generation = static_cast<std::uint32_t>(id);
  if (s.generation != generation || !s.live) {
    return false;  // already fired, already cancelled, or a reused slot
  }
  // The entry sits in the bucket its time maps to (push and rebuild place
  // every entry by day_of under the current width and mask).
  const std::size_t b = day_of(s.time) & bucket_mask_;
  std::vector<Entry>& bucket = buckets_[b];
  std::size_t pos = 0;
  while (pos < bucket.size() && bucket[pos].slot != slot) {
    ++pos;
  }
  HLS_ASSERT(pos < bucket.size(), "cancelled event missing from its bucket");
  bucket[pos] = bucket.back();
  bucket.pop_back();
  if (min_valid_ && min_bucket_ == b) {
    min_valid_ = false;  // the cached entry was removed or moved
  }
  free_slot(slot);
  HLS_ASSERT(live_ > 0, "live event count underflow");
  --live_;
  shrink_if_sparse();
  return true;
}

SimTime EventQueue::next_time() {
  HLS_ASSERT(live_ > 0, "next_time() on empty event queue");
  if (!min_valid_) {
    locate_min();
  }
  return buckets_[min_bucket_][min_pos_].when();
}

EventQueue::Popped EventQueue::pop() {
  HLS_ASSERT(live_ > 0, "pop() on empty event queue");
  if (!min_valid_) {
    locate_min();
  }
  std::vector<Entry>& bucket = buckets_[min_bucket_];
  const Entry e = bucket[min_pos_];
  bucket[min_pos_] = bucket.back();
  bucket.pop_back();
  min_valid_ = false;
  --live_;
  cur_day_ = day_of(e.when());
  const EventId id = encode_id(e.slot, slots_[e.slot].generation);
  Popped out{e.when(), id, std::move(slots_[e.slot].callback)};
  free_slot(e.slot);
  shrink_if_sparse();
  return out;
}

void EventQueue::shrink_if_sparse() {
  if (buckets_.size() > kMinBuckets && live_ < buckets_.size() / 8) {
    rebuild(std::max(kMinBuckets, std::bit_ceil(2 * live_)));
  }
}

void EventQueue::locate_min() {
  // One calendar year: step day by day from the scan floor. A bucket holds
  // entries of its day and of later years, and day_of is monotone in time,
  // so an entry of the current day precedes every later-year entry in the
  // bucket: the bucket's (time, seq) minimum is the day's minimum when it
  // lies on this day, and the day is empty otherwise. The first day found
  // holds the global minimum.
  const std::size_t nbuckets = buckets_.size();
  std::uint64_t day = cur_day_;
  for (std::size_t step = 0; step < nbuckets; ++step, ++day) {
    const std::vector<Entry>& bucket = buckets_[day & bucket_mask_];
    if (bucket.empty()) {
      continue;
    }
    // Branch-free minimum: which entry wins is data-dependent, so a
    // compare-and-branch here mispredicts; the key compare compiles to
    // conditional moves.
    std::size_t best = 0;
    Key best_key = bucket[0].key();
    for (std::size_t i = 1; i < bucket.size(); ++i) {
      const Key key = bucket[i].key();
      const bool less = key < best_key;
      best_key = less ? key : best_key;
      best = less ? i : best;
    }
    if (day_of(bucket[best].when()) == day) {
      cur_day_ = day;
      min_bucket_ = day & bucket_mask_;
      min_pos_ = best;
      min_valid_ = true;
      return;
    }
  }

  // Nothing within a year of the floor: the population is sparse relative
  // to the year span (a handful of far-apart timers). Direct-search every
  // bucket for the global minimum and jump the calendar to its day.
  std::size_t best_bucket = kNone;
  std::size_t best_pos = 0;
  Key best_key = 0;
  for (std::size_t b = 0; b < nbuckets; ++b) {
    const std::vector<Entry>& bucket = buckets_[b];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const Key key = bucket[i].key();
      if (best_bucket == kNone || key < best_key) {
        best_bucket = b;
        best_pos = i;
        best_key = key;
      }
    }
  }
  HLS_ASSERT(best_bucket != kNone, "locate_min() found no event");
  cur_day_ = day_of(buckets_[best_bucket][best_pos].when());
  min_bucket_ = best_bucket;
  min_pos_ = best_pos;
  min_valid_ = true;
}

void EventQueue::rebuild(std::size_t nbuckets) {
  scratch_.clear();
  SimTime min_t = 0.0;
  SimTime max_t = 0.0;
  for (std::vector<Entry>& bucket : buckets_) {
    for (const Entry& e : bucket) {
      if (scratch_.empty()) {
        min_t = max_t = e.when();
      } else {
        min_t = std::min(min_t, e.when());
        max_t = std::max(max_t, e.when());
      }
      scratch_.push_back(e);
    }
    bucket.clear();
  }

  // Re-estimate the bucket width as twice the typical inter-event gap: the
  // exact median of the positive adjacent gaps over the whole sorted
  // population. The median shrugs off far-future outliers (fault timers,
  // sampler ticks, drain deadlines) that would blow up a mean-based
  // estimate, and skipping zero gaps keeps same-timestamp batches from
  // dragging it to zero. Estimating from a strided subsample was tried
  // first and is NOT robust here: a one-event change to the population can
  // shift which entries the stride picks and land a 2-3x different width,
  // which then taxes every locate_min() until the next rebuild (measured
  // at ~5% of total run CPU). Rebuilds are rare, so sorting the full
  // population is cheap amortized.
  const std::size_t n = scratch_.size();
  if (n >= 2 && max_t > min_t) {
    times_scratch_.clear();
    times_scratch_.reserve(n);
    for (const Entry& e : scratch_) {
      times_scratch_.push_back(e.when());
    }
    std::sort(times_scratch_.begin(), times_scratch_.end());
    // Squash each adjacent gap into the front of the buffer, keeping only
    // the positive ones; the buffer is scratch space, so reuse it in place.
    std::size_t gaps = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double gap = times_scratch_[i + 1] - times_scratch_[i];
      if (gap > 0.0) {
        times_scratch_[gaps++] = gap;
      }
    }
    if (gaps > 0) {
      const std::size_t mid = gaps / 2;
      std::nth_element(times_scratch_.begin(),
                       times_scratch_.begin() + static_cast<std::ptrdiff_t>(mid),
                       times_scratch_.begin() + static_cast<std::ptrdiff_t>(gaps));
      double width = 2.0 * times_scratch_[mid];
      if (max_t > 0.0 && max_t / width >= kMaxDay) {
        width = max_t / kMaxDay;  // keep ordinary entries below the day clamp
      }
      if (std::isfinite(width) && width > 0.0) {
        width_ = width;
        inv_width_ = 1.0 / width_;
      }
    }
  }

  buckets_.assign(nbuckets, {});
  bucket_mask_ = nbuckets - 1;
  for (const Entry& e : scratch_) {
    buckets_[day_of(e.when()) & bucket_mask_].push_back(e);
  }
  cur_day_ = scratch_.empty() ? 0 : day_of(min_t);
  min_valid_ = false;
}

}  // namespace hls
