#include "trace/merge.hpp"

#include <queue>

namespace tetra::trace {

EventVector merge_sorted(const std::vector<EventVector>& traces) {
  struct Cursor {
    const EventVector* trace;
    std::size_t index;
    std::size_t source;
  };
  auto later = [](const Cursor& a, const Cursor& b) {
    const TimePoint ta = (*a.trace)[a.index].time;
    const TimePoint tb = (*b.trace)[b.index].time;
    if (ta != tb) return ta > tb;
    return a.source > b.source;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(later);
  std::size_t total = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    total += traces[i].size();
    if (!traces[i].empty()) heap.push(Cursor{&traces[i], 0, i});
  }
  EventVector out;
  out.reserve(total);
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    out.push_back((*c.trace)[c.index]);
    if (c.index + 1 < c.trace->size()) {
      heap.push(Cursor{c.trace, c.index + 1, c.source});
    }
  }
  return out;
}

}  // namespace tetra::trace
