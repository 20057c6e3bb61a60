// ShardedIngestService: the fleet-scale ingest loop (ROADMAP north star —
// many robots continuously uploading trace segments).
//
// Segments arrive tagged with a logical trace id (one per robot/run). A
// shard is a decode worker: the service's `shards` threads parse JSONL
// uploads from one bounded FIFO queue (that is where the parallelism pays;
// whichever worker is free takes the next upload, so load balances itself),
// and a full queue blocks the producer (backpressure instead of unbounded
// memory). flush() ingests every submission, in submission order, into the
// service's one SynthesisSession, so the service's model is the model a
// session fed the same submissions would build, whatever the worker count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/config.hpp"
#include "api/result.hpp"
#include "api/session.hpp"

namespace tetra::api {

struct IngestServiceConfig {
  /// Decode workers (the name predates the single session: a shard is now
  /// one thread that decodes JSONL uploads). model() also synthesizes on
  /// at least this many threads.
  std::size_t shards = 1;
  /// Max JSONL uploads waiting for a worker before submit_jsonl() blocks.
  std::size_t queue_capacity = 256;
  /// Configuration of the service's session.
  SynthesisConfig session;
};

class ShardedIngestService {
 public:
  explicit ShardedIngestService(IngestServiceConfig config = {});
  ~ShardedIngestService();

  ShardedIngestService(const ShardedIngestService&) = delete;
  ShardedIngestService& operator=(const ShardedIngestService&) = delete;

  /// Submits an already-parsed segment; the next flush() ingests it.
  void submit(const std::string& trace_id, trace::EventColumns events);
  /// Packs heap events and submits the columns.
  void submit(const std::string& trace_id, const trace::EventVector& events);

  /// Submits raw JSONL text, which a decode worker parses. This is the
  /// scalable path — parsing dominates ingest cost. Blocks while the
  /// decode queue is full.
  void submit_jsonl(const std::string& trace_id, std::string jsonl);

  /// Waits until every upload is decoded, then ingests every submission
  /// not yet ingested into the session, in submission order. A submission
  /// that fails to decode or ingest is skipped, and the first such error
  /// in submission order is latched.
  void flush();

  /// flush(), then the first latched error if any, then the session's
  /// combined model, synthesized on max(session threads, shards) threads.
  Result<core::TimingModel> model();

  /// Events flush() has ingested into the session so far.
  std::uint64_t events_ingested() const;

  /// First error flush() latched (ErrorCode::None when clean).
  Error first_error() const;

 private:
  struct Upload {
    std::string trace_id;
    std::string jsonl;  ///< text still to decode; moved out by a worker
    trace::EventColumns events;
    Error error;  ///< decode failure
  };

  void worker();
  void stop_workers();

  const std::size_t queue_capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< any state change (uploads, space, idle)
  /// Submissions not yet ingested, in submission order. A deque keeps
  /// element addresses across push_back, so `queue_` can point into it.
  std::deque<Upload> uploads_;
  std::deque<Upload*> queue_;  ///< uploads waiting for a decode worker
  std::size_t decoding_ = 0;   ///< uploads a worker is decoding now
  bool stop_ = false;
  Error error_;  ///< first failure in submission order, latched
  SynthesisSession session_;
  std::vector<std::thread> workers_;
};

}  // namespace tetra::api
