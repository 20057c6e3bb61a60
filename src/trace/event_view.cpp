#include "trace/event_view.hpp"

#include <queue>

namespace tetra::trace {

std::atomic<std::uint64_t> SortedEventView::copied_{0};

SortedEventView SortedEventView::over(const EventVector& events) {
  SortedEventView view;
  if (is_time_sorted(events)) {
    view.external_ = &events;
  } else {
    view.storage_ = events;
    sort_by_time(view.storage_);
    copied_.fetch_add(events.size(), std::memory_order_relaxed);
  }
  return view;
}

SortedEventView SortedEventView::adopt(EventVector events) {
  SortedEventView view;
  view.storage_ = std::move(events);
  sort_by_time(view.storage_);
  return view;
}

SortedEventView SortedEventView::merged(
    const std::vector<const EventVector*>& parts) {
  if (parts.size() == 1 && is_time_sorted(*parts[0])) {
    return over(*parts[0]);
  }
  struct Cursor {
    const EventVector* part;
    std::size_t index;
    std::size_t source;
  };
  auto later = [](const Cursor& a, const Cursor& b) {
    const TimePoint ta = (*a.part)[a.index].time;
    const TimePoint tb = (*b.part)[b.index].time;
    if (ta != tb) return ta > tb;
    return a.source > b.source;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(later);
  std::size_t total = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    total += parts[i]->size();
    if (!parts[i]->empty()) heap.push(Cursor{parts[i], 0, i});
  }
  SortedEventView view;
  view.storage_.reserve(total);
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    view.storage_.push_back((*c.part)[c.index]);
    if (c.index + 1 < c.part->size()) {
      heap.push(Cursor{c.part, c.index + 1, c.source});
    }
  }
  copied_.fetch_add(total, std::memory_order_relaxed);
  return view;
}

std::uint64_t SortedEventView::events_copied() {
  return copied_.load(std::memory_order_relaxed);
}

void SortedEventView::reset_copy_counter() {
  copied_.store(0, std::memory_order_relaxed);
}

}  // namespace tetra::trace
