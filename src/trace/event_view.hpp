// A time-sorted view over trace events that avoids copying whenever the
// caller's storage is already sorted. TraceIndex (and therefore every
// synthesis pass) builds on this view instead of taking a private sorted
// copy of the whole trace:
//
//  - over(events)   borrows an already-sorted vector (zero copies; falls
//                   back to an owning sorted copy only for unsorted input);
//  - adopt(events)  takes ownership, sorting in place if needed;
//  - merged(parts)  single-pass k-way merge of sorted segments into owned
//                   storage — the streaming-ingestion path, replacing the
//                   old concatenate + re-sort + copy-again pipeline.
//
// A global copy counter tracks how many events were ever copied into view
// storage; benches assert on it to keep the zero/single-copy guarantees
// from regressing.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace tetra::trace {

class SortedEventView {
 public:
  SortedEventView() = default;

  /// Borrows `events` when already time-sorted (the view holds a pointer;
  /// the caller must keep the vector alive and unmodified for the view's
  /// lifetime). Unsorted input degrades to an owning sorted copy.
  static SortedEventView over(const EventVector& events);

  /// Takes ownership of `events`, stably sorting in place when needed.
  /// Never copies element storage beyond the vector move itself.
  static SortedEventView adopt(EventVector events);

  /// K-way merges already-sorted segments into owned storage in one pass.
  /// Ties keep segment order (earlier pointer first) for determinism —
  /// the same tie-break as concatenation + stable sort.
  static SortedEventView merged(const std::vector<const EventVector*>& parts);

  std::size_t size() const { return data().size(); }
  bool empty() const { return data().empty(); }
  const TraceEvent& operator[](std::size_t i) const { return data()[i]; }
  const TraceEvent* begin() const { return data().data(); }
  const TraceEvent* end() const { return data().data() + data().size(); }

  /// True when the view owns its storage (adopted, merged, or copied).
  bool owns_storage() const { return external_ == nullptr; }

  /// Materializes a copy of the viewed events (not counted as a view copy).
  EventVector to_vector() const { return data(); }

  /// Total events ever copied into view-owned storage, process-wide.
  /// Borrowed (`over` on sorted input) events never count; adopted vectors
  /// never count; `merged` counts each merged event once.
  static std::uint64_t events_copied();
  static void reset_copy_counter();

 private:
  const EventVector& data() const {
    return external_ != nullptr ? *external_ : storage_;
  }

  EventVector storage_;
  const EventVector* external_ = nullptr;

  static std::atomic<std::uint64_t> copied_;
};

}  // namespace tetra::trace
