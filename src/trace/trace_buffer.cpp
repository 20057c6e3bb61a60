#include "trace/trace_buffer.hpp"

#include "telemetry/metrics.hpp"

namespace tetra::trace {

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {}

bool TraceBuffer::push(TraceEvent event) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    // Surfaced process-wide: per-buffer dropped() is easy to miss once
    // many buffers exist (one per tracer per run).
    static telemetry::Counter& drop_counter =
        telemetry::MetricsRegistry::global().counter("trace.buffer_dropped");
    drop_counter.inc();
    return false;
  }
  events_.push_back(std::move(event));
  return true;
}

EventVector TraceBuffer::drain() {
  EventVector out;
  out.swap(events_);
  return out;
}

void TraceBuffer::clear() {
  events_.clear();
  dropped_ = 0;
}

}  // namespace tetra::trace
