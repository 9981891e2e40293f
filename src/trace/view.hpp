// Composable lazy trace-view DAG: one ingest, N consumers.
//
// A View is an immutable handle on a node of a dataflow graph over trace
// records. Chaining builders describe a pipeline without running it:
//
//   auto src  = View::source(ctx, "trace.out");       // any on-disk format
//   auto xfrm = src.transform(rules);                 // paper §IV rewrite
//   Graph g;
//   g.add_sink(src,  affinity);    // raw records -> profiler
//   g.add_sink(xfrm, writer);      // transformed -> trace file
//   g.add_sink(xfrm, sweep);       // transformed -> N cache configs
//   g.run({.registry = reg, .governor = gov});
//
// Nothing reads the trace until Graph::run() (or the drain()/collect()
// conveniences) evaluates the graph. Evaluation is a single batched pass:
// each source pulls batches of at most kViewBatch records from its
// cursor (trace/stream.hpp) and every batch flows through the DAG once,
// shared (by pointer, no copy) between all consumers of a node — so one
// ingest feeds any number of transforms and sinks, and a fault injected
// at the reader fires once per batch regardless of fan-out. Because
// nodes with a single upstream can never merge streams, the graph is a
// forest: each registered source is drained in registration order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "trace/stream.hpp"
#include "util/diag.hpp"
#include "util/governor.hpp"
#include "util/obs.hpp"

namespace tdt::core {
class RuleSet;
struct TransformOptions;
struct TransformStats;
}  // namespace tdt::core

namespace tdt::trace {

/// User-defined streaming stage for View::pipe(): consumes input batches
/// in trace order and appends output records. One instance is created
/// per evaluation (per Graph::run that reaches the node), so stateful
/// stages start fresh and repeated evaluations are deterministic.
class ViewStage {
 public:
  virtual ~ViewStage() = default;

  /// Transforms one input batch; append output records to `out` (which
  /// arrives empty). May emit zero or many records per input record.
  virtual void on_batch(std::span<const TraceRecord> in,
                        std::vector<TraceRecord>& out) = 0;

  /// End of stream: flush any tail records into `out`.
  virtual void on_end(std::vector<TraceRecord>& /*out*/) {}
};

/// Creates a fresh ViewStage for one evaluation. `ctx` is the trace
/// context of the node's source.
using ViewStageFactory =
    std::function<std::unique_ptr<ViewStage>(TraceContext& ctx)>;

namespace detail {
struct ViewNode;
}  // namespace detail

class Graph;

/// Per-run evaluation knobs (Graph::run / View::drain / View::collect).
struct EvalOptions {
  /// Folds per-node counters (view.<id>.pulls) and the source read.*
  /// family after the run.
  obs::Registry* registry = nullptr;
  /// Deadline checked at batch granularity.
  Governor* governor = nullptr;
};

/// What one node did during an evaluation (GraphResult::stages).
struct StageStats {
  std::string id;             ///< stable per-run id, e.g. "source0"
  std::uint64_t pulls = 0;    ///< batches the node emitted downstream
  std::uint64_t records = 0;  ///< records the node emitted
};

/// What one evaluation delivered.
struct GraphResult {
  std::uint64_t records = 0;  ///< records produced by all sources
  std::uint64_t pid = 0;      ///< pid of the first source that knew one
  bool deadline_hit = false;  ///< stopped early at a batch boundary
  std::vector<StageStats> stages;  ///< evaluation-order node counters

  /// Stats for node `id`; nullptr when the node was not evaluated.
  [[nodiscard]] const StageStats* stage(std::string_view id) const noexcept;
};

/// Immutable handle on one DAG node. Copying shares the node; chaining
/// builders append nodes. A node reached from two views is evaluated
/// once per run and its batches are shared by all consumers.
class View {
 public:
  View() = default;

  /// Trace-file source; the format is guessed from the extension (see
  /// open_trace_cursor: "-" streams stdin, .gz text inflates, TDTB v3
  /// containers with a valid index decode with options.jobs workers).
  /// `ctx` must outlive every evaluation.
  static View source(TraceContext& ctx, std::string path,
                     ViewSourceOptions options = {});

  /// In-memory record source (records owned by the node).
  static View source_records(TraceContext& ctx,
                             std::vector<TraceRecord> records);

  [[nodiscard]] bool valid() const noexcept { return node_ != nullptr; }

  /// Rule-driven trace transformation (paper §IV; core::TraceTransformer
  /// under the hood, one fresh transformer per evaluation). When
  /// `stats_out` is non-null the transformer's stats are copied there at
  /// end of stream. `rules` must outlive every evaluation. Defined in
  /// src/core/view_transform.cpp (links with tdt_core).
  [[nodiscard]] View transform(const core::RuleSet& rules) const;
  [[nodiscard]] View transform(const core::RuleSet& rules,
                               const core::TransformOptions& options,
                               core::TransformStats* stats_out = nullptr) const;

  /// Generic streaming stage (the extension point transform() is built
  /// on). `label` names the node in metrics (view.<label><n>.*).
  [[nodiscard]] View pipe(ViewStageFactory factory,
                          std::string label = "pipe") const;

  /// One-consumer convenience: evaluates this view into `sink`.
  GraphResult drain(TraceSink& sink, const EvalOptions& options = {}) const;

  /// Evaluates this view and returns its records.
  [[nodiscard]] std::vector<TraceRecord> collect(
      const EvalOptions& options = {}) const;

 private:
  friend class Graph;
  explicit View(std::shared_ptr<detail::ViewNode> node)
      : node_(std::move(node)) {}

  std::shared_ptr<detail::ViewNode> node_;
};

/// An evaluation: terminal sinks attached to views, drained in one pass.
/// The graph itself is cheap; the Views outlive it.
class Graph {
 public:
  Graph() = default;

  /// Registers `sink` as a consumer of `v`. Sinks attached to the same
  /// node receive each batch in registration order, before any
  /// downstream nodes; `sink` must outlive run().
  void add_sink(const View& v, TraceSink& sink);

  /// Evaluates every registered view in one pass per source (sources
  /// drain in registration order). Each sink receives its full record
  /// stream in trace order — bit-identical to evaluating its chain alone
  /// — and exactly one on_end. Exceptions from sinks or stages propagate
  /// (remaining sinks see neither further batches nor on_end) once the
  /// sources' decode threads are joined. May be called again: later runs
  /// re-read and re-evaluate.
  GraphResult run(const EvalOptions& options = {});

 private:
  std::vector<std::pair<std::shared_ptr<detail::ViewNode>, TraceSink*>>
      sinks_;
};

}  // namespace tdt::trace
