#include "api/ingest_service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

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
  /// Time submit() spent blocked on a full shard queue; observed only on
  /// actual stalls so uncontended runs stay deterministic.
  telemetry::Histogram& block_ns =
      telemetry::MetricsRegistry::global().histogram(
          "ingest.enqueue_block_ns",
          {1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000});

  static IngestMetrics& get() {
    static IngestMetrics metrics;
    return metrics;
  }
};

}  // namespace

ShardedIngestService::ShardedIngestService(IngestServiceConfig config)
    : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->session = SynthesisSession(config_.session);
    shard->depth_gauge = &telemetry::MetricsRegistry::global().gauge(
        "ingest.queue_depth", {{"shard", std::to_string(i)}});
    shard->depth_gauge->set(0);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, raw = shard.get()] { worker(*raw); });
  }
}

ShardedIngestService::~ShardedIngestService() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->stop = true;
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

std::size_t ShardedIngestService::shard_of(const std::string& trace_id) const {
  // FNV-1a 64: stable across runs and platforms, good spread for the
  // short robot/run identifiers trace ids tend to be.
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : trace_id) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % shards_.size());
}

void ShardedIngestService::submit(const std::string& trace_id,
                                  trace::EventColumns events) {
  Item item;
  item.trace_id = trace_id;
  item.events = std::move(events);
  enqueue(shard_of(trace_id), std::move(item));
}

void ShardedIngestService::submit(const std::string& trace_id,
                                  const trace::EventVector& events) {
  submit(trace_id, trace::EventColumns(events));
}

void ShardedIngestService::submit_jsonl(const std::string& trace_id,
                                        std::string jsonl) {
  Item item;
  item.trace_id = trace_id;
  item.jsonl = std::move(jsonl);
  item.parse = true;
  enqueue(shard_of(trace_id), std::move(item));
}

void ShardedIngestService::enqueue(std::size_t shard_index, Item item) {
  Shard& shard = *shards_[shard_index];
  std::unique_lock lock(shard.mutex);
  const auto has_space = [&] {
    return shard.queue.size() < config_.queue_capacity;
  };
  if (!has_space()) {
    IngestMetrics::get().stalls.inc();
    const std::int64_t blocked_at = telemetry::clock_now();
    shard.cv.wait(lock, has_space);
    IngestMetrics::get().block_ns.observe(telemetry::clock_now() - blocked_at);
  }
  if (!item.synthesize) IngestMetrics::get().routed.inc();
  shard.queue.push_back(std::move(item));
  shard.depth_gauge->set(static_cast<std::int64_t>(shard.queue.size()));
  shard.cv.notify_all();
}

void ShardedIngestService::flush() {
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    shard->cv.wait(lock, [&] { return shard->queue.empty() && !shard->busy; });
  }
}

void ShardedIngestService::worker(Shard& shard) {
  std::unique_lock lock(shard.mutex);
  for (;;) {
    shard.cv.wait(lock, [&] { return shard.stop || !shard.queue.empty(); });
    if (shard.queue.empty()) return;  // stop requested, queue drained
    Item item = std::move(shard.queue.front());
    shard.queue.pop_front();
    shard.depth_gauge->set(static_cast<std::int64_t>(shard.queue.size()));
    shard.busy = true;
    shard.cv.notify_all();  // a slot freed up
    lock.unlock();

    Error error;
    std::size_t ingested = 0;
    try {
      if (item.synthesize) {
        Result<core::TimingModel> result = shard.session.model();
        // An idle shard legitimately has nothing to synthesize.
        if (!result.ok() && result.error().code != ErrorCode::EmptySession) {
          error = result.error();
        }
      } else {
        IngestOptions options;
        options.trace_id = item.trace_id;
        if (item.parse) item.events = trace::columns_from_jsonl(item.jsonl);
        Result<SegmentInfo> result =
            shard.session.ingest(std::move(item.events), options);
        if (!result.ok()) error = result.error();
        ingested = result.ok() ? result->event_count : 0;
      }
    } catch (const std::exception& e) {
      error = Error{ErrorCode::Io, e.what(), item.trace_id};
    }
    if (!item.synthesize) {
      IngestMetrics::get().processed.inc();
      IngestMetrics::get().events.add(ingested);
    }
    if (ingested > 0) events_ingested_.fetch_add(ingested);

    lock.lock();
    if (error.code != ErrorCode::None &&
        shard.error.code == ErrorCode::None) {
      shard.error = error;
    }
    shard.busy = false;
    shard.cv.notify_all();
  }
}

Error ShardedIngestService::first_error() const {
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    if (shard->error.code != ErrorCode::None) return shard->error;
  }
  return {};
}

Result<core::TimingModel> ShardedIngestService::model() {
  flush();
  if (Error error = first_error(); error.code != ErrorCode::None) {
    return error;
  }
  // Synthesize all shards in parallel: each worker runs its session's
  // model() (which only re-synthesizes dirty traces), …
  for (auto& shard : shards_) {
    Item token;
    token.synthesize = true;
    std::lock_guard lock(shard->mutex);
    shard->queue.push_back(std::move(token));
    shard->depth_gauge->set(static_cast<std::int64_t>(shard->queue.size()));
    shard->cv.notify_all();
  }
  flush();
  if (Error error = first_error(); error.code != ErrorCode::None) {
    return error;
  }

  // … then combine the cached per-trace models in lexicographic trace-id
  // order, which no shard count can perturb.
  std::vector<std::pair<std::string, SynthesisSession*>> traces;
  for (auto& shard : shards_) {
    for (const std::string& id : shard->session.trace_ids()) {
      traces.emplace_back(id, &shard->session);
    }
  }
  if (traces.empty()) {
    return Error{ErrorCode::EmptySession,
                 "no events ingested before model()", ""};
  }
  std::sort(traces.begin(), traces.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  core::TimingModel combined;
  for (auto& [id, session] : traces) {
    Result<core::TimingModel> result = session->trace_model(id);
    if (!result.ok()) return result.error();
    combined.dag.merge(result.value().dag);
    combined.node_callbacks.insert(combined.node_callbacks.end(),
                                   result.value().node_callbacks.begin(),
                                   result.value().node_callbacks.end());
  }
  return combined;
}

}  // namespace tetra::api
