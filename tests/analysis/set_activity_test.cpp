#include "analysis/set_activity.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "cache/hierarchy.hpp"
#include "trace/reader.hpp"
#include "../trace/var_ref.hpp"

namespace tdt::analysis {
namespace {

using cache::CacheConfig;
using cache::CacheHierarchy;
using cache::TraceCacheSim;
using trace::TraceContext;

CacheConfig tiny() {
  CacheConfig c;
  c.size = 256;  // 8 sets of 32 B, direct mapped
  c.block_size = 32;
  c.assoc = 1;
  return c;
}

TEST(SetActivity, AttributesAccessesToVariablesAndSets) {
  TraceContext ctx;
  const auto records = trace::read_trace_string(
      ctx,
      "L 000000000 4 main GS a[0]\n"   // set 0 miss
      "L 000000000 4 main GS a[0]\n"   // set 0 hit
      "L 000000020 4 main GS b[0]\n"); // set 1 miss
  CacheHierarchy h(tiny());
  TraceCacheSim sim(h);
  SetActivityCollector collector(ctx, 8);
  sim.add_observer(&collector);
  sim.simulate(records);

  ASSERT_EQ(collector.variables().size(), 2u);
  EXPECT_EQ(collector.variables()[0], "a");
  EXPECT_EQ(collector.series("a")[0].misses, 1u);
  EXPECT_EQ(collector.series("a")[0].hits, 1u);
  EXPECT_EQ(collector.series("b")[1].misses, 1u);
  EXPECT_EQ(collector.series("b")[0].hits, 0u);
}

TEST(SetActivity, AnonymousRecordsBucketed) {
  TraceContext ctx;
  const auto records =
      trace::read_trace_string(ctx, "L 000000000 4 main\n");
  CacheHierarchy h(tiny());
  TraceCacheSim sim(h);
  SetActivityCollector collector(ctx, 8);
  sim.add_observer(&collector);
  sim.simulate(records);
  EXPECT_EQ(collector.series("<anon>")[0].misses, 1u);
}

TEST(SetActivity, UnknownVariableYieldsEmptySeries) {
  TraceContext ctx;
  SetActivityCollector collector(ctx, 4);
  const auto& series = collector.series("ghost");
  ASSERT_EQ(series.size(), 4u);
  for (const SetCell& c : series) {
    EXPECT_EQ(c.hits + c.misses, 0u);
  }
}

TEST(SetActivity, TotalsSumOverVariables) {
  TraceContext ctx;
  const auto records = trace::read_trace_string(
      ctx,
      "L 000000000 4 main GS a[0]\n"
      "L 000000020 4 main GS b[0]\n"
      "L 000000020 4 main GS b[0]\n");
  CacheHierarchy h(tiny());
  TraceCacheSim sim(h);
  SetActivityCollector collector(ctx, 8);
  sim.add_observer(&collector);
  sim.simulate(records);
  const auto totals = collector.totals();
  std::uint64_t all = 0;
  for (const SetCell& c : totals) all += c.hits + c.misses;
  EXPECT_EQ(all, 3u);
  // Totals per set match the cache's own per-set counters.
  const auto& set_stats = h.l1().set_stats();
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(totals[s].hits, set_stats[s].hits);
    EXPECT_EQ(totals[s].misses, set_stats[s].misses);
  }
}

TEST(SetActivity, ActiveSetsListsTouchedOnly) {
  TraceContext ctx;
  const auto records = trace::read_trace_string(
      ctx,
      "L 000000000 4 main GS a[0]\n"
      "L 0000000e0 4 main GS a[7]\n");  // set 7
  CacheHierarchy h(tiny());
  TraceCacheSim sim(h);
  SetActivityCollector collector(ctx, 8);
  sim.add_observer(&collector);
  sim.simulate(records);
  EXPECT_EQ(collector.active_sets("a"),
            (std::vector<std::uint64_t>{0, 7}));
  EXPECT_TRUE(collector.active_sets("ghost").empty());
}

TEST(SetActivity, VariablesOrderedByFirstTouch) {
  TraceContext ctx;
  const auto records = trace::read_trace_string(
      ctx,
      "L 000000000 4 main GS zebra[0]\n"
      "L 000000020 4 main GS apple[0]\n"
      "L 000000000 4 main GS zebra[0]\n");
  CacheHierarchy h(tiny());
  TraceCacheSim sim(h);
  SetActivityCollector collector(ctx, 8);
  sim.add_observer(&collector);
  sim.simulate(records);
  EXPECT_EQ(collector.variables(),
            (std::vector<std::string>{"zebra", "apple"}));
}

/// The collector as it was first written, kept as the naive reference:
/// one name string and one map lookup per access.
class ReferenceSetActivity final : public cache::AccessObserver {
 public:
  ReferenceSetActivity(const TraceContext& ctx, std::uint64_t num_sets)
      : ctx_(&ctx), num_sets_(num_sets) {}

  void on_access(const trace::TraceRecord& rec,
                 const cache::AccessOutcome& outcome) override {
    const std::string name = rec.var.empty()
                                 ? std::string("<anon>")
                                 : std::string(ctx_->name(rec.var.base));
    auto [it, fresh] = cells.try_emplace(name);
    if (fresh) {
      it->second.assign(num_sets_, SetCell{});
      order.push_back(name);
    }
    SetCell& cell = it->second[outcome.set];
    if (outcome.hit) {
      ++cell.hits;
    } else {
      ++cell.misses;
    }
  }

  std::vector<std::string> order;
  std::map<std::string, std::vector<SetCell>> cells;

 private:
  const TraceContext* ctx_;
  std::uint64_t num_sets_;
};

TEST(SetActivity, MatchesNaiveReferenceOnRandomStream) {
  TraceContext ctx;
  // Nine variables (one nested), anonymous records, and symbols interned
  // out of first-touch order, over a 64-set cache.
  std::vector<trace::VarRef> vars;
  for (const char* text : {"zeta", "a", "grid[3].x", "b", "tmp", "lSoA",
                           "mX", "q", "row"}) {
    vars.push_back(trace::var_ref(ctx, text));
  }
  std::mt19937_64 rng(42);
  std::vector<trace::TraceRecord> records(20'000);
  for (trace::TraceRecord& rec : records) {
    const std::uint64_t pick = rng() % (vars.size() + 2);
    if (pick < vars.size()) rec.var = vars[pick];  // else: no variable
    rec.kind = rng() % 4 == 0 ? trace::AccessKind::Store
                              : trace::AccessKind::Load;
    rec.size = 4;
    rec.address = 0x10000 + (rng() % 8192) * 4;
  }
  CacheConfig config;
  config.size = 4096;
  config.block_size = 32;
  config.assoc = 2;
  CacheHierarchy h(config);
  TraceCacheSim sim(h);
  SetActivityCollector collector(ctx, config.num_sets());
  ReferenceSetActivity reference(ctx, config.num_sets());
  sim.add_observer(&collector);
  sim.add_observer(&reference);
  sim.simulate(records);

  EXPECT_EQ(collector.variables(), reference.order);
  ASSERT_EQ(collector.variables().size(), vars.size() + 1);  // + "<anon>"
  std::vector<SetCell> totals(config.num_sets());
  for (const auto& [name, cells] : reference.cells) {
    const std::vector<SetCell>& series = collector.series(name);
    ASSERT_EQ(series.size(), cells.size()) << name;
    for (std::size_t s = 0; s < cells.size(); ++s) {
      EXPECT_EQ(series[s].hits, cells[s].hits) << name << " set " << s;
      EXPECT_EQ(series[s].misses, cells[s].misses) << name << " set " << s;
      totals[s].hits += cells[s].hits;
      totals[s].misses += cells[s].misses;
    }
  }
  const std::vector<SetCell> got = collector.totals();
  for (std::size_t s = 0; s < totals.size(); ++s) {
    EXPECT_EQ(got[s].hits, totals[s].hits) << "set " << s;
    EXPECT_EQ(got[s].misses, totals[s].misses) << "set " << s;
  }
}

}  // namespace
}  // namespace tdt::analysis
