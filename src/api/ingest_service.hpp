// ShardedIngestService: the fleet-scale ingest loop (ROADMAP north star —
// many robots continuously uploading trace segments).
//
// Segments arrive tagged with a logical trace id (one per robot/run) and
// are routed by hash onto N worker shards. Each shard owns a private
// SynthesisSession and a bounded FIFO queue: JSONL parsing and ingestion
// happen on the shard worker (that is where the parallelism pays), segments
// of one trace id always land on the same shard (so per-trace merge order
// is arrival order, exactly like a single session), and a full queue blocks
// the producer (backpressure instead of unbounded memory).
//
// model() synthesizes every shard's dirty traces in parallel — each shard
// processes a synthesize token on its own worker — then combines the
// per-trace models over lexicographically sorted trace ids, so the result
// is independent of the shard count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/config.hpp"
#include "api/result.hpp"
#include "api/session.hpp"
#include "telemetry/metrics.hpp"

namespace tetra::api {

struct IngestServiceConfig {
  /// Worker shards; each owns one SynthesisSession and one thread.
  std::size_t shards = 1;
  /// Max queued items per shard before submit() blocks.
  std::size_t queue_capacity = 256;
  /// Configuration of every shard session.
  SynthesisConfig session;
};

class ShardedIngestService {
 public:
  explicit ShardedIngestService(IngestServiceConfig config = {});
  ~ShardedIngestService();

  ShardedIngestService(const ShardedIngestService&) = delete;
  ShardedIngestService& operator=(const ShardedIngestService&) = delete;

  /// Routes an already-parsed segment to its trace's shard. Blocks while
  /// the shard queue is full.
  void submit(const std::string& trace_id, trace::EventColumns events);
  /// Packs heap events and submits the columns.
  void submit(const std::string& trace_id, const trace::EventVector& events);

  /// Routes raw JSONL text; the shard worker parses it. This is the
  /// scalable path — parsing dominates ingest cost.
  void submit_jsonl(const std::string& trace_id, std::string jsonl);

  /// Blocks until every queued item has been ingested.
  void flush();

  /// The combined model over everything ingested so far. Implies flush();
  /// must not run concurrently with submissions. Surfaces the first
  /// latched ingest error, if any.
  Result<core::TimingModel> model();

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(const std::string& trace_id) const;
  std::uint64_t events_ingested() const { return events_ingested_.load(); }

  /// First error any shard hit (ErrorCode::None when clean).
  Error first_error() const;

 private:
  struct Item {
    std::string trace_id;
    trace::EventColumns events;
    std::string jsonl;
    bool parse = false;       ///< events come from parsing `jsonl`
    bool synthesize = false;  ///< token: synthesize this shard's session
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;  ///< any state change (items, space, idle)
    std::deque<Item> queue;
    bool busy = false;
    bool stop = false;
    Error error;  ///< first failure, latched
    SynthesisSession session;
    std::thread thread;
    /// "ingest.queue_depth{shard=i}" — registered at construction so every
    /// shard shows up in snapshots even when idle.
    telemetry::Gauge* depth_gauge = nullptr;
  };

  void worker(Shard& shard);
  void enqueue(std::size_t shard_index, Item item);

  IngestServiceConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> events_ingested_{0};
};

}  // namespace tetra::api
