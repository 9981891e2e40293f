// Per-set, per-variable hit/miss histograms — the data behind every
// figure in the paper (Figures 3, 4, 6, 7, 10, 11 plot, for each cache
// set, the hits and misses attributed to each program structure). This is
// the "modified DineroIV" capability of tracking cache statistics at
// variable-level accuracy.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/sim.hpp"
#include "trace/record.hpp"

namespace tdt::analysis {

/// Hit/miss counters of one variable in one set.
struct SetCell {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Collects per-(set, variable) counters from a simulation.
class SetActivityCollector final : public cache::AccessObserver {
 public:
  /// `ctx` resolves variable symbols to names for reports; `num_sets`
  /// fixes the histogram width (use the L1 config's num_sets()).
  SetActivityCollector(const trace::TraceContext& ctx, std::uint64_t num_sets);

  void on_access(const trace::TraceRecord& rec,
                 const cache::AccessOutcome& outcome) override;

  /// Variable names observed, in first-touch order. Records without
  /// symbol information are accumulated under "<anon>".
  [[nodiscard]] const std::vector<std::string>& variables() const noexcept {
    return names_;
  }

  /// Series for one variable: one SetCell per cache set.
  [[nodiscard]] const std::vector<SetCell>& series(
      const std::string& variable) const;

  /// Total hits+misses per set across all variables.
  [[nodiscard]] std::vector<SetCell> totals() const;

  [[nodiscard]] std::uint64_t num_sets() const noexcept { return num_sets_; }

  /// Sets where a variable recorded any activity.
  [[nodiscard]] std::vector<std::uint64_t> active_sets(
      const std::string& variable) const;

 private:
  /// Series of a base symbol seen for the first time: resolves its name
  /// once and returns the slot (+1) of the series that name accumulates in.
  std::uint32_t add_symbol(Symbol base);

  const trace::TraceContext* ctx_;
  std::uint64_t num_sets_;
  // One series per name, in first-touch order: cells_[i] is names_[i]'s.
  std::vector<std::string> names_;
  std::vector<std::vector<SetCell>> cells_;
  std::map<std::string, std::uint32_t, std::less<>> by_name_;
  // Base-symbol id -> series slot + 1 (0 = not seen yet). Id 0, the
  // empty symbol of records without a variable, lands in "<anon>".
  std::vector<std::uint32_t> slot_by_symbol_;
  std::vector<SetCell> empty_;
};

}  // namespace tdt::analysis
