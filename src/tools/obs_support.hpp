// Shared observability glue for the CLI tools: the --progress heartbeat
// sink, and folds of the subsystem statistics structs (DiagEngine,
// TransformStats, CacheLevel, ParallelSweep) into an obs::Registry under
// the documented metric names (docs/OBSERVABILITY.md). The flags that
// request them are part of CommonFlags (tools/cli_common.hpp).
//
// Everything here follows the null-registry convention: passing nullptr
// makes every fold a no-op, so the tools call these unconditionally and
// stay byte-identical when the flags are off.
#pragma once

#include <span>
#include <string>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/sweep.hpp"
#include "core/transformer.hpp"
#include "trace/sink.hpp"
#include "util/diag.hpp"
#include "util/obs.hpp"

namespace tdt::tools {

/// The --progress heartbeat as a terminal sink: attach it to the source
/// view next to the tool's real consumers. It ticks once per batch of
/// raw input records and prints the final total at on_end.
class HeartbeatSink final : public trace::TraceSink {
 public:
  HeartbeatSink(std::string label, std::ostream& out)
      : heartbeat_(std::move(label), out) {}

  void on_record(const trace::TraceRecord&) override { heartbeat_.tick(1); }
  void push_batch(std::span<const trace::TraceRecord> batch) override {
    heartbeat_.tick(batch.size());
  }
  void on_end() override { heartbeat_.finish(); }

 private:
  obs::Heartbeat heartbeat_;
};

/// Folds diagnostics totals and per-code counts into diag.* counters
/// (diag.errors, diag.warnings, diag.<kebab-code-name>).
inline void fold_diags(obs::Registry* reg, const DiagEngine& diags) {
  if (reg == nullptr) return;
  reg->counter("diag.errors").add(diags.errors());
  reg->counter("diag.warnings").add(diags.warnings());
  for (const auto& [code, n] : diags.counts()) {
    reg->counter("diag." + std::string(diag_code_name(code))).add(n);
  }
}

/// Folds the transformer counters into transform.* counters.
inline void fold_transform(obs::Registry* reg, const core::TransformStats& s) {
  if (reg == nullptr) return;
  reg->counter("transform.records_in").add(s.records_in);
  reg->counter("transform.records_out").add(s.records_out);
  reg->counter("transform.rewritten").add(s.rewritten);
  reg->counter("transform.inserted").add(s.inserted);
  reg->counter("transform.passthrough").add(s.passthrough);
  reg->counter("transform.skipped").add(s.skipped);
  reg->counter("transform.plan_hits").add(s.plan_hits);
  reg->counter("transform.plan_misses").add(s.plan_misses);
}

/// Folds one cache level under `prefix` (e.g. "cache.L1"): the full
/// LevelStats counter set plus a per-set activity histogram
/// (<prefix>.set_accesses: one sample per set, value = accesses to it).
inline void fold_level(obs::Registry* reg, const std::string& prefix,
                       const cache::CacheLevel& level) {
  if (reg == nullptr) return;
  const cache::LevelStats& s = level.stats();
  reg->counter(prefix + ".read_hits").add(s.read_hits);
  reg->counter(prefix + ".read_misses").add(s.read_misses);
  reg->counter(prefix + ".write_hits").add(s.write_hits);
  reg->counter(prefix + ".write_misses").add(s.write_misses);
  reg->counter(prefix + ".miss_compulsory").add(s.compulsory);
  reg->counter(prefix + ".miss_capacity").add(s.capacity);
  reg->counter(prefix + ".miss_conflict").add(s.conflict);
  reg->counter(prefix + ".evictions").add(s.evictions);
  reg->counter(prefix + ".writebacks").add(s.writebacks);
  reg->counter(prefix + ".prefetches").add(s.prefetches);
  reg->counter(prefix + ".prefetch_hits").add(s.prefetch_hits);
  reg->gauge(prefix + ".miss_ratio").set(s.miss_ratio());
  obs::HistogramData sets;
  for (const cache::SetStats& ss : level.set_stats()) {
    sets.record(ss.hits + ss.misses);
  }
  if (!sets.empty()) reg->histogram(prefix + ".set_accesses").merge(sets);
}

/// Folds every level of a hierarchy under "<prefix>.<level-name>".
inline void fold_hierarchy(obs::Registry* reg, const cache::CacheHierarchy& h,
                           const std::string& prefix = "cache") {
  if (reg == nullptr) return;
  for (std::size_t i = 0; i < h.depth(); ++i) {
    const cache::CacheLevel& level = h.level(i);
    fold_level(reg, prefix + "." + level.config().name, level);
  }
}

/// Folds a sweep: per-point hierarchies under "cache.p<i>" plus the
/// point count gauge.
inline void fold_sweep(obs::Registry* reg, const cache::ParallelSweep& sweep) {
  if (reg == nullptr) return;
  reg->gauge("sweep.points").set(static_cast<double>(sweep.size()));
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    fold_hierarchy(reg, sweep.hierarchy(i), "cache.p" + std::to_string(i));
  }
}

}  // namespace tdt::tools
