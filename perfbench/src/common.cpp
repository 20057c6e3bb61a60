#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "support/json_writer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// -- spans ------------------------------------------------------------------

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

SpanLog::Scope::Scope(SpanLog* log, std::string name, std::uint64_t items)
    : log_(log) {
  if (log_ == nullptr) return;
  Record record;
  record.name = std::move(name);
  record.parent = log_->open_.empty() ? kNoParent : log_->open_.back();
  record.items = items;
  index_ = log_->spans_.size();
  log_->spans_.push_back(std::move(record));
  log_->open_.push_back(index_);
  log_->spans_[index_].start_ns = log_->now_ns();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Record& record = log_->spans_[index_];
  record.end_ns = log_->now_ns();
  log_->open_.pop_back();
  if (record.parent != kNoParent) {
    log_->spans_[record.parent].child_ns += record.end_ns - record.start_ns;
  }
}

void SpanLog::Scope::set_items(std::uint64_t items) {
  if (log_ != nullptr) log_->spans_[index_].items = items;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals(std::size_t from,
                                                       std::size_t to) const {
  std::map<std::string, Totals> all;
  for (std::size_t i = from; i < to && i < spans_.size(); ++i) {
    const Record& record = spans_[i];
    Totals& t = all[record.name];
    const std::int64_t duration = record.end_ns - record.start_ns;
    t.count += 1;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - record.child_ns) / 1e6;
    t.items += record.items;
  }
  return all;
}

SpanLog::Totals span_totals(const std::map<std::string, SpanLog::Totals>& all,
                            const std::string& name) {
  const auto it = all.find(name);
  return it == all.end() ? SpanLog::Totals{} : it->second;
}

void SpanLog::write(const std::string& path, const std::string& header) const {
  std::ofstream out(path, std::ios::trunc);
  out << header << "\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& record = spans_[i];
    tetra::JsonWriter json;
    json.begin_object()
        .kv("id", static_cast<std::uint64_t>(i))
        .kv("parent", record.parent == kNoParent
                          ? std::int64_t{-1}
                          : static_cast<std::int64_t>(record.parent))
        .kv("name", record.name)
        .kv("start_ns", record.start_ns)
        .kv("end_ns", record.end_ns)
        .kv("self_ns", record.end_ns - record.start_ns - record.child_ns)
        .kv("items", record.items)
        .end_object();
    out << json.str() << "\n";
  }
  tetra::JsonWriter summary;
  summary.begin_object().key("summary").begin_object();
  for (const auto& [name, t] : totals(0, spans_.size())) {
    summary.key(name)
        .begin_object()
        .kv("count", static_cast<std::uint64_t>(t.count))
        .kv("total_ms", t.total_ms)
        .kv("self_ms", t.self_ms)
        .kv("items", t.items)
        .end_object();
  }
  summary.end_object().end_object();
  out << summary.str() << "\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

// -- statistics -------------------------------------------------------------

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

std::vector<std::size_t> fastest_passes(const std::vector<PassSample>& passes) {
  std::map<std::size_t, std::vector<std::size_t>> by_unit;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    by_unit[passes[i].unit].push_back(i);
  }
  std::vector<std::size_t> fastest;
  for (auto& [unit, indices] : by_unit) {
    std::stable_sort(indices.begin(), indices.end(),
                     [&](std::size_t a, std::size_t b) {
                       return passes[a].wall_ms < passes[b].wall_ms;
                     });
    const auto keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(kFastestShare * static_cast<double>(indices.size()))));
    fastest.insert(fastest.end(), indices.begin(),
                   indices.begin() + static_cast<std::ptrdiff_t>(keep));
  }
  return fastest;
}

bool enough_calls(const std::vector<PassSample>& passes) {
  std::size_t calls = 0;
  for (const PassSample& pass : passes) calls += pass.call_ms.size();
  return calls >= kMinCallSamples;
}

// -- memory and host --------------------------------------------------------

bool reset_peak_rss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool wrote = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && wrote;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

/// A fixed amount of integer work the optimizer cannot drop.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double timed_spin(unsigned threads, std::uint64_t iterations) {
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] { sink.fetch_xor(spin(iterations)); });
  }
  for (auto& thread : pool) thread.join();
  const double ms = ms_between(t0, Clock::now());
  return sink.load() == 1 ? ms + 1e-9 : ms;  // keeps `sink` observable
}

}  // namespace

std::string host_record_json() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  constexpr std::uint64_t kIterations = 20'000'000;
  const double one = timed_spin(1, kIterations);
  const double all = timed_spin(nproc, kIterations);
  const double effective =
      all > 0.0 ? static_cast<double>(nproc) * one / all : 0.0;
  tetra::JsonWriter json;
  json.begin_object()
      .kv("nproc", static_cast<std::uint64_t>(nproc))
      .kv("effective_parallelism", effective)
      .kv("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .end_object();
  return json.str();
}

// -- outcome ----------------------------------------------------------------

void Outcome::operation(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    problems.push_back(what);
  }
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) problems.push_back(what);
}

void Outcome::metric(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    problems.push_back("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Outcome::end_to_end(const std::vector<double>& setup_s,
                         const std::vector<PassSample>& passes) {
  double events = 0.0, event_ms = 0.0, answers = 0.0, answer_ms = 0.0;
  std::vector<double> fast_call_ms, call_ms;
  for (const std::size_t i : fastest_passes(passes)) {
    const PassSample& pass = passes[i];
    events += pass.events;
    event_ms += pass.event_ms;
    answers += pass.answers;
    answer_ms += pass.answer_ms;
    fast_call_ms.insert(fast_call_ms.end(), pass.call_ms.begin(),
                        pass.call_ms.end());
  }
  for (const PassSample& pass : passes) {
    call_ms.insert(call_ms.end(), pass.call_ms.begin(), pass.call_ms.end());
  }
  metric("setup_s", median(setup_s), "s");
  metric("events_per_s", events / (event_ms / 1e3), "1/s");
  metric("answers_per_s", answers / (answer_ms / 1e3), "1/s");
  metric("call_p50_ms", quantile(fast_call_ms, 0.50), "ms");
  metric("call_p99_ms", quantile(call_ms, 0.99), "ms");
  metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

std::string Outcome::result_line() const {
  std::string line = "{\"correct\": ";
  line += problems.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  return line;
}

}  // namespace perfbench
