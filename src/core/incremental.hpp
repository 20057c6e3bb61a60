// Incremental model synthesis: Algorithm 1 without re-reading history.
//
// A full synthesis re-runs extraction for every node whenever any segment
// arrives. This class instead keeps the appendable TraceIndex plus, per
// node, the cached CBlist AND the extraction's read set (ExtractDeps).
// When a segment lands, the AppendDelta the index reports is intersected
// with each node's read set; only nodes whose inputs actually changed are
// re-extracted. Because extraction is a pure function of (index, pid) and
// the appended index is indistinguishable from a fully rebuilt one (see
// TraceIndex), the incremental model is byte-identical to what a from-
// scratch synthesis over the same segments would produce.
//
// It is also the one place the pipeline runs end to end — extraction,
// worker merging, label normalization, DAG building — so a from-scratch
// synthesis is a short-lived synthesizer that receives every segment and
// then hands its lists over with take_model().
#pragma once

#include <map>
#include <set>

#include "core/extract.hpp"
#include "core/model_synthesis.hpp"

namespace tetra::core {

class IncrementalSynthesizer {
 public:
  explicit IncrementalSynthesizer(SynthesisOptions options = {})
      : options_(std::move(options)) {}

  /// Appends one time-sorted segment (throws std::invalid_argument when
  /// unsorted) and marks affected nodes dirty.
  void append(const trace::ColumnsView& view);
  void append(trace::EventColumns&& segment);

  /// The model over everything appended so far, extracted under
  /// `extract` (the constructor's options by default). Re-extracts only
  /// dirty nodes, or every node when `extract` differs from the options
  /// the cached lists were extracted with (a compensation cost
  /// re-estimated after an append, say). Label normalization, worker
  /// merging and DAG building always rerun (they are cheap relative to
  /// extraction and depend on the global node set). Nothing is cached
  /// beyond the per-node lists: callers keep the model.
  TimingModel model() { return model(options_.extract); }
  TimingModel model(const ExtractOptions& extract) {
    return synthesize(extract, /*take=*/false);
  }

  /// model(extract) for a synthesizer about to be discarded: the lists
  /// move into the model instead of being copied, and no read sets are
  /// recorded.
  TimingModel take_model(const ExtractOptions& extract) && {
    return synthesize(extract, /*take=*/true);
  }

  std::size_t event_count() const { return index_.size(); }

  /// Nodes re-extracted by the last model() call (0 when nothing changed)
  /// — the observable measure of incremental work.
  std::size_t last_extracted() const { return last_extracted_; }

  const TraceIndex& index() const { return index_; }

 private:
  void apply_delta(const AppendDelta& delta);
  /// The pipeline behind model() and take_model(): with `take`, lists
  /// move out and no read sets are recorded.
  TimingModel synthesize(const ExtractOptions& extract, bool take);

  SynthesisOptions options_;
  TraceIndex index_;
  std::map<Pid, CallbackList> lists_;  ///< raw (pre-normalization) CBlists
  std::map<Pid, ExtractDeps> deps_;    ///< read set of each cached list
  std::set<Pid> dirty_;
  ExtractOptions extracted_with_;  ///< options the cached lists used
  std::size_t last_extracted_ = 0;
};

}  // namespace tetra::core
