// Differential topology fuzz for the view DAG: random graphs of
// transform and reshape nodes (depth <= 4, fan-out <= 4) over randomly
// shaped structs and record streams, evaluated once through Graph::run
// with every consumer sharing one ingest — then checked byte-for-byte
// against the naive baseline that re-reads and re-applies the chain
// independently per consumer. A reshape node is a stateful pipe stage
// that drops and duplicates records and holds a tail back until end of
// stream, so its batches do not line up with its input's. A second
// evaluation of the same graph gets fresh stages and must match too.
//
// The suite/round/record-count macros let the same file run as a small
// deterministic tier-1 round (tests_trace) and a big slow round
// (tests_trace_slow, `LABELS slow`).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rules.hpp"
#include "core/transformer.hpp"
#include "layout/path.hpp"
#include "trace/view.hpp"
#include "util/rng.hpp"
#include "var_ref.hpp"

#ifndef TDT_VIEW_FUZZ_SUITE
#define TDT_VIEW_FUZZ_SUITE ViewFuzzSmall
#endif
#ifndef TDT_VIEW_FUZZ_ROUNDS
#define TDT_VIEW_FUZZ_ROUNDS 24
#endif
#ifndef TDT_VIEW_FUZZ_RECORDS
#define TDT_VIEW_FUZZ_RECORDS 3000
#endif

namespace tdt::trace {
namespace {

struct NodeSpec {
  enum class Op : std::uint8_t { Source, Transform, Reshape };
  Op op = Op::Source;
  int parent = -1;
  std::uint64_t mix = 0;   // Reshape: salts reshape_copies
  std::size_t hold = 0;    // Reshape: output records held back
};

/// How many copies of the record at `index` of its input stream a
/// reshape node emits: 0 (dropped), 1 or 2. Pure data, so the DAG node
/// and the naive baseline apply bit-identical logic.
unsigned reshape_copies(const NodeSpec& spec, std::uint64_t index,
                        const TraceRecord& rec) {
  return static_cast<unsigned>((rec.address / 4 + spec.mix + index) % 3);
}

/// The reshape node's stage: counts its input records across batches and
/// holds the last spec.hold output records back until more arrive, or
/// flushes them at end of stream.
class Reshape final : public ViewStage {
 public:
  explicit Reshape(const NodeSpec& spec) : spec_(spec) {}

  void on_batch(std::span<const TraceRecord> in,
                std::vector<TraceRecord>& out) override {
    for (const TraceRecord& rec : in) {
      for (unsigned c = reshape_copies(spec_, seen_++, rec); c > 0; --c) {
        held_.push_back(rec);
      }
    }
    if (held_.size() <= spec_.hold) return;
    const auto cut = held_.end() - static_cast<std::ptrdiff_t>(spec_.hold);
    out.assign(held_.begin(), cut);
    held_.erase(held_.begin(), cut);
  }

  void on_end(std::vector<TraceRecord>& out) override {
    out = std::move(held_);
  }

 private:
  NodeSpec spec_;
  std::uint64_t seen_ = 0;
  std::vector<TraceRecord> held_;
};

class ViewFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ViewFuzz, RandomTopologyMatchesNaiveBaseline) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 1299721 + 17);

  // --- random struct + reorder rules (the transform op's substrate) ---
  layout::TypeTable types;
  const layout::TypeId prims[] = {types.char_type(), types.short_type(),
                                  types.int_type(), types.long_type(),
                                  types.float_type(), types.double_type()};
  const std::size_t nfields = 2 + rng.next_below(5);
  std::vector<layout::PendingField> fields;
  for (std::size_t i = 0; i < nfields; ++i) {
    layout::TypeId t = prims[rng.next_below(6)];
    if (rng.next_below(3) == 0) t = types.array_of(t, 1 + rng.next_below(5));
    fields.push_back({"f" + std::to_string(i), t});
  }
  std::vector<layout::PendingField> shuffled = fields;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  const layout::TypeId in_struct =
      types.define_struct("In" + std::to_string(GetParam()),
                          std::move(fields));
  const layout::TypeId out_struct = types.define_struct(
      "Out" + std::to_string(GetParam()), std::move(shuffled));
  core::RuleSet rules(std::move(types));
  {
    core::StructRule rule;
    rule.in_name = "var";
    rule.in_type = in_struct;
    rule.outs = {{"out", out_struct}};
    rules.add(std::move(rule));
  }
  for (const core::RuleDiagnostic& d : rules.validate()) {
    ASSERT_NE(d.severity, core::RuleDiagnostic::Severity::Error) << d.message;
  }

  // --- random record stream: leaf accesses of the struct, plus noise ---
  trace::TraceContext ctx;
  struct Leaf {
    VarRef var;
    std::uint64_t offset;
    std::uint32_t size;
  };
  std::vector<Leaf> leaves;
  const auto& t = rules.types();
  layout::for_each_leaf(
      t, in_struct,
      [&](const layout::Path& path, std::uint64_t offset,
          layout::TypeId leaf) {
        leaves.push_back(
            {var_ref(ctx, "var" +
                           layout::format_path({path.data(), path.size()})),
             offset, static_cast<std::uint32_t>(t.size_of(leaf))});
      });
  ASSERT_FALSE(leaves.empty());
  const Symbol fn = ctx.intern("main");
  const VarRef noise_var = var_ref(ctx, "other");
  const std::uint64_t in_base = 0x7ff200000;
  const std::size_t n = TDT_VIEW_FUZZ_RECORDS / 2 +
                        rng.next_below(TDT_VIEW_FUZZ_RECORDS / 2 + 1);
  std::vector<TraceRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord rec;
    rec.kind = rng.next_below(4) == 0 ? AccessKind::Load : AccessKind::Store;
    rec.thread = 1;
    rec.function = fn;
    if (rng.next_below(5) == 0) {
      rec.scope = VarScope::GlobalVariable;
      rec.var = noise_var;
      rec.size = 8;
      rec.address = 0x600000 + 8 * rng.next_below(64);
    } else {
      const Leaf& leaf = leaves[rng.next_below(leaves.size())];
      rec.scope = VarScope::LocalStructure;
      rec.var = leaf.var;
      rec.size = leaf.size;
      rec.address = in_base + leaf.offset;
    }
    records.push_back(rec);
  }

  // --- random DAG topology: depth <= 4, fan-out <= 4 ---
  std::vector<NodeSpec> specs(1);  // [0] = source
  std::vector<int> depth{0};
  std::vector<int> fanout{0};
  const std::size_t ops = 3 + rng.next_below(6);
  for (std::size_t i = 0; i < ops; ++i) {
    int parent = -1;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const int candidate = static_cast<int>(rng.next_below(specs.size()));
      if (depth[candidate] < 4 && fanout[candidate] < 4) {
        parent = candidate;
        break;
      }
    }
    if (parent < 0) break;
    NodeSpec spec;
    spec.parent = parent;
    if (rng.next_below(2) == 0) {
      spec.op = NodeSpec::Op::Transform;
    } else {
      spec.op = NodeSpec::Op::Reshape;
      spec.mix = rng.next_below(1000);
      spec.hold = rng.next_below(2 * kViewBatch + 1);
    }
    ++fanout[parent];
    depth.push_back(depth[parent] + 1);
    fanout.push_back(0);
    specs.push_back(spec);
  }

  // --- build the views ---
  std::vector<View> views;
  views.push_back(View::source_records(ctx, records));
  for (std::size_t i = 1; i < specs.size(); ++i) {
    const NodeSpec& spec = specs[i];
    const View& up = views[static_cast<std::size_t>(spec.parent)];
    if (spec.op == NodeSpec::Op::Transform) {
      views.push_back(up.transform(rules));
    } else {
      views.push_back(up.pipe(
          [spec](TraceContext&) { return std::make_unique<Reshape>(spec); },
          "reshape"));
    }
  }

  // --- naive baseline: re-read + re-apply per consumer, no sharing ---
  std::vector<std::vector<TraceRecord>> naive(specs.size());
  std::vector<bool> have_naive(specs.size(), false);
  naive[0] = records;
  have_naive[0] = true;
  for (std::size_t i = 1; i < specs.size(); ++i) {
    const NodeSpec& spec = specs[i];
    const std::vector<TraceRecord>& up =
        naive[static_cast<std::size_t>(spec.parent)];
    if (spec.op == NodeSpec::Op::Transform) {
      naive[i] = core::transform_trace(rules, ctx, up);
    } else {
      for (std::size_t k = 0; k < up.size(); ++k) {
        for (unsigned c = reshape_copies(spec, k, up[k]); c > 0; --c) {
          naive[i].push_back(up[k]);
        }
      }
    }
    have_naive[i] = true;
  }

  // --- sink placement: every leaf, plus a sprinkle of inner nodes ---
  std::vector<bool> sinked(specs.size(), false);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sinked[i] = fanout[i] == 0 || rng.next_below(3) == 0;
  }

  // --- evaluate the DAG twice: each run builds fresh stages ---
  for (int round = 0; round < 2; ++round) {
    std::vector<std::unique_ptr<VectorSink>> sinks(specs.size());
    Graph graph;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!sinked[i]) continue;
      sinks[i] = std::make_unique<VectorSink>();
      graph.add_sink(views[i], *sinks[i]);
    }
    graph.run();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!sinked[i]) continue;
      ASSERT_TRUE(have_naive[i]);
      EXPECT_EQ(sinks[i]->records(), naive[i])
          << "node " << i << " diverged from the naive baseline in round "
          << round << " (seed " << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TDT_VIEW_FUZZ_SUITE, ViewFuzz,
                         ::testing::Range(0, TDT_VIEW_FUZZ_ROUNDS));

}  // namespace
}  // namespace tdt::trace
