#include "predict/model_simulator.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>
#include <set>

#include "core/callback_record.hpp"
#include "predict/sampler.hpp"
#include "sched/machine.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace tetra::predict {

namespace {

/// Junction pseudo-edges ("&<node>") carry no DDS sample: the member
/// completing the set hands its result to the junction instantaneously.
bool is_junction_edge(const std::string& topic) {
  return !topic.empty() && topic.front() == '&';
}

std::string plain_topic(const std::string& topic) {
  return core::split_annotated_topic(topic).first;
}

/// One queued callback activation of a vertex.
struct Activation {
  std::size_t vertex = 0;
  /// The sample (interned topic, src_ts) this activation consumes;
  /// nullopt for timers.
  std::optional<analysis::TopicSample> take;
};

/// The whole replay state; built fresh per ModelSimulator::replay() so
/// the simulator can be const and re-runnable.
class Engine {
 public:
  Engine(const core::Dag& dag, const PredictionConfig& config,
         const std::map<std::string, Duration>& source_periods)
      : dag_(dag), config_(config), hop_rng_(stream_seed(config.seed, "/hops")) {
    build_vertices();
    build_executors();
    build_sources(source_periods);
  }

  ModelSimulator::Replay run() {
    for (std::size_t v = 0; v < vertices_.size(); ++v) {
      if (vertices_[v].timer_period.has_value() && !vertices_[v].pruned) {
        schedule_timer(v, *vertices_[v].timer_period);
      }
    }
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      schedule_source(s, sources_[s].period);
    }
    sim_.run_until(TimePoint::zero() + config_.horizon);

    ModelSimulator::Replay replay;
    replay.topics = std::move(topics_);
    replay.instances = std::move(instances_);
    replay.writes = std::move(writes_);
    replay.activations = activations_;
    replay.deliveries = deliveries_;
    return replay;
  }

 private:
  struct Hop {
    std::size_t target = 0;
    /// Interned plain topic (kNoTopic for junction hops): deliveries are
    /// scheduled per sample, so the captured topic must be an id, not a
    /// per-event string copy.
    analysis::TopicId topic = analysis::InstanceTimeline::kNoTopic;
    bool to_junction = false;
  };

  static constexpr std::size_t kNoUnit = static_cast<std::size_t>(-1);

  struct VertexState {
    const core::DagVertex* dv = nullptr;
    std::size_t executor = 0;
    /// Serialization unit (one per (node, exec_group)); kNoUnit for
    /// reentrant vertices and junctions — no mutual exclusion.
    std::size_t unit = kNoUnit;
    ExecTimeSampler sampler;
    double scale = 1.0;
    bool pruned = false;
    std::optional<Duration> timer_period;
    std::vector<Hop> hops;
    /// Distinct plain topics this vertex writes on completion (interned).
    std::vector<analysis::TopicId> write_topics;
    /// AND junctions: expected member count and per-member pending sample
    /// (producer instance index), cleared on each firing.
    std::size_t member_count = 0;
    std::map<std::size_t, std::size_t> barrier;
  };

  /// One executor worker's in-flight activation. Kept in the executor
  /// state so completion events capture only (engine, executor, slot) and
  /// stay within std::function's small-buffer size — no per-activation
  /// allocation.
  struct WorkerSlot {
    Activation current;
    TimePoint started;
    bool busy = false;
    sched::Thread* thread = nullptr;  // machine mode
  };

  struct ExecutorState {
    std::deque<Activation> queue;
    /// Worker count: max learned node_workers over the executor's nodes
    /// (or the per-node what-if override).
    int capacity = 1;
    int active = 0;  // busy slots (contention-free mode bookkeeping)
    std::vector<WorkerSlot> slots;
  };

  /// A pending DDS sample delivery. Deliveries go through one POD heap
  /// drained by a shared pump event instead of one closure-carrying sim
  /// event each — the replay's highest-volume allocation eliminated.
  struct Delivery {
    TimePoint time;
    std::uint64_t seq = 0;  ///< FIFO tie-break (deterministic replay)
    std::size_t target = 0;
    analysis::TopicId topic = 0;
    TimePoint src_ts;
  };
  struct DeliveryLater {
    bool operator()(const Delivery& a, const Delivery& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct SourceState {
    analysis::TopicId topic = 0;  ///< interned plain topic
    Duration period = Duration::zero();
    std::vector<std::size_t> targets;
  };

  analysis::TopicId intern(const std::string& topic) {
    const auto [it, inserted] = topic_ids_.try_emplace(
        topic, static_cast<analysis::TopicId>(topics_.size()));
    if (inserted) topics_.push_back(topic);
    return it->second;
  }

  void build_vertices() {
    const auto& verts = dag_.vertices();
    vertices_.reserve(verts.size());
    for (std::size_t i = 0; i < verts.size(); ++i) {
      const core::DagVertex& dv = verts[i];
      index_of_[dv.key] = i;
      VertexState state{
          &dv, 0, kNoUnit,
          ExecTimeSampler(dv.stats, stream_seed(config_.seed, dv.key)),
          1.0, false, std::nullopt, {}, {}, 0, {}};
      state.pruned = config_.pruned.count(dv.key) > 0;
      state.scale = config_.global_exec_scale;
      if (auto it = config_.exec_scale.find(dv.key);
          it != config_.exec_scale.end()) {
        state.scale *= it->second;
      }
      if (dv.kind == CallbackKind::Timer && !dv.is_and_junction) {
        if (auto it = config_.timer_period.find(dv.key);
            it != config_.timer_period.end()) {
          state.timer_period = it->second;
        } else if (dv.period.has_value() && *dv.period > Duration::zero()) {
          state.timer_period = dv.period;
        } else {
          // A timer observed too rarely to estimate a period still has to
          // fire for its chains to produce predictions.
          state.timer_period = config_.default_input_period;
        }
      }
      vertices_.push_back(std::move(state));
    }
    // Hops along the model's edges.
    for (const core::DagEdge& edge : dag_.edges()) {
      const std::size_t from = index_of_.at(edge.from);
      const std::size_t to = index_of_.at(edge.to);
      Hop hop;
      hop.target = to;
      hop.to_junction = is_junction_edge(edge.topic);
      if (!hop.to_junction) {
        hop.topic = intern(plain_topic(edge.topic));
        auto& writes = vertices_[from].write_topics;
        if (std::find(writes.begin(), writes.end(), hop.topic) ==
            writes.end()) {
          writes.push_back(hop.topic);
        }
      }
      vertices_[from].hops.push_back(std::move(hop));
      if (vertices_[to].dv->is_and_junction) ++vertices_[to].member_count;
    }
  }

  void build_executors() {
    // Worker count per node: the what-if override, else the count the
    // synthesis learned for the node's vertices (one pass, then lookups).
    std::map<std::string, int> workers_of_node;
    for (const auto& vertex : vertices_) {
      int& workers = workers_of_node[vertex.dv->node_name];
      workers = std::max({workers, 1, vertex.dv->node_workers});
    }
    for (const auto& [node, workers] : config_.workers) {
      if (auto it = workers_of_node.find(node); it != workers_of_node.end()) {
        it->second = std::max(1, workers);
      }
    }

    // Executor per node, unless a mapping consolidates nodes.
    std::map<std::string, std::size_t> executor_index;
    // push_back+append instead of `"#" + to_string(...)`: the string
    // operator+(const char*, string&&) insert path trips a GCC
    // -Wrestrict false positive under -O3, and CI builds Release with
    // -Werror.
    const auto executor_key = [this](const std::string& node) -> std::string {
      if (config_.executors.has_value()) {
        auto mapped = config_.executors->executor_of_node.find(node);
        if (mapped != config_.executors->executor_of_node.end()) {
          std::string key;
          key.push_back('#');
          key.append(std::to_string(mapped->second));
          return key;
        }
      }
      return node;
    };
    for (auto& vertex : vertices_) {
      auto [it, inserted] = executor_index.emplace(
          executor_key(vertex.dv->node_name), executors_.size());
      if (inserted) executors_.emplace_back();
      vertex.executor = it->second;
      // An executor consolidating several nodes gets the largest member
      // pool (its workers serve every member node's queue).
      ExecutorState& executor = executors_[it->second];
      executor.capacity = std::max(executor.capacity,
                                   workers_of_node.at(vertex.dv->node_name));
    }
    for (auto& executor : executors_) {
      executor.slots.resize(static_cast<std::size_t>(executor.capacity));
    }

    // Serialization units: one per (node, learned exec_group); reentrant
    // vertices and junctions stay unconstrained.
    std::map<std::pair<std::string, int>, std::size_t> unit_index;
    for (auto& vertex : vertices_) {
      if (vertex.dv->is_and_junction || vertex.dv->reentrant) continue;
      auto [it, inserted] = unit_index.emplace(
          std::pair{vertex.dv->node_name, vertex.dv->exec_group},
          unit_busy_.size());
      if (inserted) unit_busy_.push_back(0);
      vertex.unit = it->second;
    }

    if (config_.executors.has_value()) {
      sched::Machine::Config machine_config;
      machine_config.num_cpus = std::max(1, config_.executors->num_cpus);
      machine_.emplace(sim_, machine_config);
      for (std::size_t e = 0; e < executors_.size(); ++e) {
        for (std::size_t w = 0;
             w < static_cast<std::size_t>(executors_[e].capacity); ++w) {
          sched::ThreadConfig thread_config;
          thread_config.name = "predict-exec-" + std::to_string(e);
          if (w > 0) {
            thread_config.name.push_back('w');
            thread_config.name.append(std::to_string(w));
          }
          thread_config.priority = config_.executors->priority;
          thread_config.policy = config_.executors->policy;
          executors_[e].slots[w].thread = &machine_->create_thread(
              thread_config, [this, e, w] { pump(e, w); });
        }
      }
    }
  }

  void build_sources(const std::map<std::string, Duration>& source_periods) {
    std::map<std::string, std::size_t> source_index;
    for (std::size_t v = 0; v < vertices_.size(); ++v) {
      const core::DagVertex& dv = *vertices_[v].dv;
      if (dv.in_topic.empty() || dv.is_and_junction) continue;
      if (!dag_.in_edges(dv.key).empty()) continue;
      const std::string topic = plain_topic(dv.in_topic);
      auto [it, inserted] = source_index.emplace(topic, sources_.size());
      if (inserted) {
        sources_.push_back(
            SourceState{intern(topic), source_periods.at(topic), {}});
      }
      sources_[it->second].targets.push_back(v);
    }
  }

  // -- drive ----------------------------------------------------------------

  void schedule_timer(std::size_t v, Duration period) {
    if (period <= Duration::zero()) return;  // never spin at one instant
    // First fire after one period: ros2::Node's default timer phase.
    // Captures stay within std::function's small buffer (no allocation).
    sim_.post_after(period, [this, v] {
      enqueue(Activation{v, std::nullopt});
      schedule_timer(v, *vertices_[v].timer_period);
    });
  }

  void schedule_source(std::size_t s, Duration period) {
    if (period <= Duration::zero()) return;
    sim_.post_after(period, [this, s] {
      const SourceState& source = sources_[s];
      const TimePoint now = sim_.now();
      writes_.push_back({analysis::kNoInstance, {source.topic, now}});
      for (const std::size_t target : source.targets) {
        deliver_after_hop(target, source.topic, now);
      }
      schedule_source(s, source.period);
    });
  }

  void deliver_after_hop(std::size_t target, analysis::TopicId topic,
                         TimePoint src_ts) {
    const Duration hop =
        hop_rng_.uniform(config_.hop_latency.lo, config_.hop_latency.hi);
    const TimePoint at = sim_.now() + hop;
    pending_deliveries_.push(
        Delivery{at, delivery_seq_++, target, topic, src_ts});
    arm_pump(at);
  }

  /// Invariant: whenever deliveries are pending, an armed pump exists at
  /// or before the head's time — and never a redundant duplicate.
  void arm_pump(TimePoint at) {
    if (!armed_pumps_.empty() && *armed_pumps_.begin() <= at) return;
    armed_pumps_.insert(at);
    sim_.post_at(at, [this] { pump_deliveries(); });
  }

  void pump_deliveries() {
    const TimePoint now = sim_.now();
    armed_pumps_.erase(now);
    while (!pending_deliveries_.empty() &&
           pending_deliveries_.top().time <= now) {
      const Delivery delivery = pending_deliveries_.top();
      pending_deliveries_.pop();
      ++deliveries_;
      if (!vertices_[delivery.target].pruned) {
        enqueue(
            Activation{delivery.target,
                       analysis::TopicSample{delivery.topic, delivery.src_ts}});
      }
    }
    if (!pending_deliveries_.empty()) {
      arm_pump(pending_deliveries_.top().time);
    }
  }

  // -- executors ------------------------------------------------------------

  void enqueue(Activation activation) {
    if (vertices_[activation.vertex].pruned) return;
    const std::size_t e = vertices_[activation.vertex].executor;
    ExecutorState& executor = executors_[e];
    executor.queue.push_back(std::move(activation));
    if (machine_.has_value()) {
      for (WorkerSlot& slot : executor.slots) slot.thread->wake();
    } else {
      try_dispatch(e);
    }
  }

  Duration sample_exec(VertexState& vertex) {
    const double scaled =
        static_cast<double>(vertex.sampler.sample().count_ns()) * vertex.scale;
    return Duration{static_cast<std::int64_t>(scaled < 0.0 ? 0.0 : scaled)};
  }

  /// First queued activation whose serialization unit is free; npos when
  /// every queued item is blocked behind its group.
  std::size_t pick_eligible(ExecutorState& executor) {
    for (std::size_t i = 0; i < executor.queue.size(); ++i) {
      const std::size_t unit = vertices_[executor.queue[i].vertex].unit;
      if (unit == kNoUnit || !unit_busy_[unit]) return i;
    }
    return kNoUnit;
  }

  /// Claims `activation`'s unit and pops it from the queue.
  Activation claim(ExecutorState& executor, std::size_t queue_index) {
    Activation activation = executor.queue[queue_index];
    executor.queue.erase(executor.queue.begin() +
                         static_cast<std::ptrdiff_t>(queue_index));
    const std::size_t unit = vertices_[activation.vertex].unit;
    if (unit != kNoUnit) unit_busy_[unit] = 1;
    return activation;
  }

  void release(const Activation& activation) {
    const std::size_t unit = vertices_[activation.vertex].unit;
    if (unit != kNoUnit) unit_busy_[unit] = 0;
  }

  /// Contention-free mode: the executor is a pool of `capacity` virtual
  /// workers; group-eligible activations start the moment a worker and
  /// their serialization unit are free.
  void try_dispatch(std::size_t e) {
    ExecutorState& executor = executors_[e];
    while (executor.active < executor.capacity) {
      const std::size_t pick = pick_eligible(executor);
      if (pick == kNoUnit) return;
      std::size_t s = 0;
      while (executor.slots[s].busy) ++s;
      WorkerSlot& slot = executor.slots[s];
      slot.current = claim(executor, pick);
      slot.started = sim_.now();
      slot.busy = true;
      ++executor.active;
      const Duration exec = sample_exec(vertices_[slot.current.vertex]);
      sim_.post_after(exec, [this, e, s] {
        ExecutorState& ex = executors_[e];
        WorkerSlot& done = ex.slots[s];
        done.busy = false;
        --ex.active;
        release(done.current);
        complete(done.current, done.started, sim_.now());
        try_dispatch(e);
      });
    }
  }

  /// Machine mode: per-worker loop (the substrate executor's ready-set
  /// polling pattern) — wall time then includes CPU contention.
  void pump(std::size_t e, std::size_t w) {
    ExecutorState& executor = executors_[e];
    WorkerSlot& slot = executor.slots[w];
    const std::size_t pick = pick_eligible(executor);
    if (pick == kNoUnit) {
      slot.thread->block([this, e, w] { pump(e, w); });
      return;
    }
    slot.current = claim(executor, pick);
    slot.started = sim_.now();
    const Duration exec = sample_exec(vertices_[slot.current.vertex]);
    slot.thread->compute(exec, [this, e, w] {
      ExecutorState& ex = executors_[e];
      WorkerSlot& done = ex.slots[w];
      release(done.current);
      complete(done.current, done.started, sim_.now());
      // The released unit may unblock queued work for sibling workers.
      if (ex.capacity > 1) {
        for (WorkerSlot& other : ex.slots) {
          if (&other != &done) other.thread->wake();
        }
      }
      pump(e, w);
    });
  }

  // -- completion & routing -------------------------------------------------

  void complete(const Activation& activation, TimePoint start, TimePoint end) {
    VertexState& vertex = vertices_[activation.vertex];
    ++activations_;

    analysis::CallbackInstance instance;
    instance.pid = static_cast<Pid>(1000 + vertex.executor);
    instance.callback_id = static_cast<CallbackId>(activation.vertex + 1);
    instance.kind = vertex.dv->kind;
    instance.start = start;
    instance.end = end;
    instance.take = activation.take;
    const auto instance_index = static_cast<std::uint32_t>(instances_.size());
    instances_.push_back(instance);
    for (const analysis::TopicId topic : vertex.write_topics) {
      writes_.push_back({instance_index, {topic, end}});
    }

    for (const Hop& hop : vertex.hops) {
      if (hop.to_junction) {
        junction_arrival(hop.target, activation.vertex, instance_index, end);
      } else {
        deliver_after_hop(hop.target, hop.topic, end);
      }
    }
  }

  /// AND-junction barrier: fires when every member has delivered since
  /// the last firing; the member completing the set carries the fused
  /// publication (its traversal completes, the others' die out — the
  /// substrate's message_filters behaviour).
  void junction_arrival(std::size_t junction_index, std::size_t member,
                        std::uint32_t member_instance, TimePoint now) {
    VertexState& junction = vertices_[junction_index];
    if (junction.pruned) return;
    junction.barrier[member] = member_instance;
    if (junction.barrier.size() < junction.member_count) return;
    junction.barrier.clear();

    for (const analysis::TopicId topic : junction.write_topics) {
      writes_.push_back({member_instance, {topic, now}});
    }
    for (const Hop& hop : junction.hops) {
      deliver_after_hop(hop.target, hop.topic, now);
    }
  }

  const core::Dag& dag_;
  const PredictionConfig& config_;
  /// Interned plain topic names, indexed by the replay's topic ids.
  std::vector<std::string> topics_;
  std::map<std::string, analysis::TopicId> topic_ids_;
  sim::Simulator sim_;
  std::optional<sched::Machine> machine_;
  SplitMix64 hop_rng_;
  std::map<std::string, std::size_t> index_of_;
  std::vector<VertexState> vertices_;
  std::vector<ExecutorState> executors_;
  /// Busy flags of the serialization units ((node, exec_group) pairs).
  std::vector<char> unit_busy_;
  std::vector<SourceState> sources_;

  std::priority_queue<Delivery, std::vector<Delivery>, DeliveryLater>
      pending_deliveries_;
  std::uint64_t delivery_seq_ = 0;
  /// Times with an armed pump event (a handful at most).
  std::set<TimePoint> armed_pumps_;

  std::vector<analysis::CallbackInstance> instances_;
  /// Every write in the order made: the instances', and the external
  /// inputs' (analysis::kNoInstance).
  std::vector<analysis::InstanceWrite> writes_;
  std::size_t activations_ = 0;
  std::size_t deliveries_ = 0;
};

}  // namespace

ModelSimulator::ModelSimulator(const core::Dag& dag, PredictionConfig config)
    : dag_(&dag), config_(std::move(config)) {}

Duration ModelSimulator::input_period_for(const std::string& topic) const {
  if (auto it = config_.input_period.find(topic);
      it != config_.input_period.end()) {
    return it->second;
  }
  // Anchor a run-length estimate on the timers (period x instances); the
  // subscriber's own instance count then yields its drive period. Counts
  // merged over several runs inflate both sides of the ratio equally.
  Duration run_estimate = Duration::zero();
  for (const core::DagVertex& dv : dag_->vertices()) {
    if (dv.kind != CallbackKind::Timer || dv.is_and_junction) continue;
    if (!dv.period.has_value() || dv.instance_count == 0) continue;
    const Duration estimate =
        *dv.period * static_cast<std::int64_t>(dv.instance_count);
    run_estimate = std::max(run_estimate, estimate);
  }
  std::size_t subscriber_instances = 0;
  for (const core::DagVertex& dv : dag_->vertices()) {
    if (dv.in_topic.empty() || dv.is_and_junction) continue;
    if (!dag_->in_edges(dv.key).empty()) continue;
    if (plain_topic(dv.in_topic) != topic) continue;
    subscriber_instances = std::max(subscriber_instances, dv.instance_count);
  }
  if (run_estimate > Duration::zero() && subscriber_instances > 0) {
    const Duration period =
        run_estimate / static_cast<std::int64_t>(subscriber_instances);
    if (period > Duration::zero()) return period;
  }
  return config_.default_input_period;
}

ModelSimulator::Replay ModelSimulator::replay() const {
  // Resolve every dangling-input drive period up front; the engine itself
  // never looks at vertex statistics for routing.
  std::map<std::string, Duration> source_periods;
  for (const core::DagVertex& dv : dag_->vertices()) {
    if (dv.in_topic.empty() || dv.is_and_junction) continue;
    if (!dag_->in_edges(dv.key).empty()) continue;
    const std::string topic = plain_topic(dv.in_topic);
    if (source_periods.count(topic) == 0) {
      source_periods[topic] = input_period_for(topic);
    }
  }
  Engine engine(*dag_, config_, source_periods);
  telemetry::ScopedSpan span("predict.replay");
  Replay run = engine.run();
  span.set_items(run.activations);
  static telemetry::Counter& activations_counter =
      telemetry::MetricsRegistry::global().counter("predict.activations");
  static telemetry::Counter& deliveries_counter =
      telemetry::MetricsRegistry::global().counter("predict.deliveries");
  activations_counter.add(run.activations);
  deliveries_counter.add(run.deliveries);
  return run;
}

PredictionResult ModelSimulator::predict() const {
  PredictionResult result;
  result.horizon = config_.horizon;

  analysis::ChainEnumeration enumeration =
      analysis::enumerate_chains(*dag_, config_.max_chains);
  result.chains_truncated = enumeration.truncated;

  Replay run = replay();
  result.activations = run.activations;
  result.deliveries = run.deliveries;
  const analysis::InstanceTimeline timeline(
      run.topics, std::move(run.instances), run.writes);

  for (analysis::Chain& chain : enumeration.chains) {
    const bool pruned =
        std::any_of(chain.begin(), chain.end(), [this](const std::string& key) {
          return config_.pruned.count(key) > 0;
        });
    if (pruned) continue;
    std::vector<std::string> topics = analysis::chain_topics(*dag_, chain);
    if (topics.empty()) continue;  // single-vertex chain: no latency to measure
    PredictedChainLatency predicted;
    predicted.latency = analysis::measure_chain_latency(timeline, topics);
    predicted.chain = std::move(chain);
    predicted.topics = std::move(topics);
    result.chains.push_back(std::move(predicted));
  }
  return result;
}

}  // namespace tetra::predict
