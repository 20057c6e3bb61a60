#include "api/ingest_service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "trace/serialize.hpp"

namespace tetra::api {

namespace {

struct IngestMetrics {
  telemetry::Counter& routed = telemetry::MetricsRegistry::global().counter(
      "ingest.segments_routed");
  telemetry::Counter& processed = telemetry::MetricsRegistry::global().counter(
      "ingest.segments_processed");
  telemetry::Counter& events = telemetry::MetricsRegistry::global().counter(
      "ingest.events_ingested");
  telemetry::Counter& stalls = telemetry::MetricsRegistry::global().counter(
      "ingest.backpressure_stalls");
  /// Time submit_jsonl() spent blocked on a full decode queue; observed
  /// only on actual stalls so uncontended runs stay deterministic.
  telemetry::Histogram& block_ns =
      telemetry::MetricsRegistry::global().histogram(
          "ingest.enqueue_block_ns",
          {1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000});
  telemetry::Gauge& queue_depth =
      telemetry::MetricsRegistry::global().gauge("ingest.queue_depth");

  static IngestMetrics& get() {
    static IngestMetrics metrics;
    return metrics;
  }
};

/// model() synthesizes on at least one thread per decode worker.
SynthesisConfig session_config(const IngestServiceConfig& config) {
  SynthesisConfig session = config.session;
  return session.threads(
      std::max(session.threads(), static_cast<int>(config.shards)));
}

}  // namespace

ShardedIngestService::ShardedIngestService(IngestServiceConfig config)
    : queue_capacity_(std::max<std::size_t>(config.queue_capacity, 1)),
      session_(session_config(config)) {
  // Set at construction so the gauge shows up in snapshots even when idle.
  IngestMetrics::get().queue_depth.set(0);
  const std::size_t workers = std::max<std::size_t>(config.shards, 1);
  workers_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  } catch (...) {
    stop_workers();
    throw;
  }
}

ShardedIngestService::~ShardedIngestService() { stop_workers(); }

void ShardedIngestService::stop_workers() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : workers_) thread.join();
}

void ShardedIngestService::submit(const std::string& trace_id,
                                  trace::EventColumns events) {
  std::lock_guard lock(mutex_);
  IngestMetrics::get().routed.inc();
  uploads_.push_back(Upload{trace_id, {}, std::move(events), {}});
}

void ShardedIngestService::submit(const std::string& trace_id,
                                  const trace::EventVector& events) {
  submit(trace_id, trace::EventColumns(events));
}

void ShardedIngestService::submit_jsonl(const std::string& trace_id,
                                        std::string jsonl) {
  IngestMetrics& metrics = IngestMetrics::get();
  std::unique_lock lock(mutex_);
  const auto has_space = [&] { return queue_.size() < queue_capacity_; };
  if (!has_space()) {
    metrics.stalls.inc();
    const std::int64_t blocked_at = telemetry::clock_now();
    cv_.wait(lock, has_space);
    metrics.block_ns.observe(telemetry::clock_now() - blocked_at);
  }
  metrics.routed.inc();
  uploads_.push_back(Upload{trace_id, std::move(jsonl), {}, {}});
  queue_.push_back(&uploads_.back());
  metrics.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  cv_.notify_all();
}

void ShardedIngestService::worker() {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop requested, queue drained
    Upload& upload = *queue_.front();
    queue_.pop_front();
    IngestMetrics::get().queue_depth.set(
        static_cast<std::int64_t>(queue_.size()));
    ++decoding_;
    cv_.notify_all();  // a slot freed up

    trace::EventColumns events;
    Error error;
    {
      const std::string jsonl = std::exchange(upload.jsonl, {});
      lock.unlock();
      try {
        events = trace::columns_from_jsonl(jsonl);
      } catch (const std::exception& e) {
        error = Error{ErrorCode::Io, e.what(), upload.trace_id};
      }
    }  // the text is freed before the lock is taken again
    lock.lock();
    upload.events = std::move(events);
    upload.error = std::move(error);
    --decoding_;
    cv_.notify_all();
  }
}

void ShardedIngestService::flush() {
  IngestMetrics& metrics = IngestMetrics::get();
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return queue_.empty() && decoding_ == 0; });
  for (Upload& upload : uploads_) {
    Error error = std::move(upload.error);
    if (error.code == ErrorCode::None) {
      IngestOptions options;
      options.trace_id = upload.trace_id;
      Result<SegmentInfo> result =
          session_.ingest(std::move(upload.events), options);
      if (result.ok()) {
        metrics.events.add(result->event_count);
      } else {
        error = result.error();
      }
    }
    metrics.processed.inc();
    if (error.code != ErrorCode::None && error_.code == ErrorCode::None) {
      error_ = std::move(error);
    }
  }
  uploads_.clear();
}

std::uint64_t ShardedIngestService::events_ingested() const {
  std::lock_guard lock(mutex_);
  return session_.event_count();
}

Error ShardedIngestService::first_error() const {
  std::lock_guard lock(mutex_);
  return error_;
}

Result<core::TimingModel> ShardedIngestService::model() {
  flush();
  std::lock_guard lock(mutex_);
  if (error_.code != ErrorCode::None) return error_;
  return session_.model();
}

}  // namespace tetra::api
