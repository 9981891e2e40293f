// View::transform — the DAG's bridge into the rule-driven transformer.
// Lives in tdt_core (not tdt_trace) because tdt_core already links
// against the trace library; view.hpp only forward-declares the core
// types, so the header dependency stays one-way.
#include <algorithm>

#include "core/transformer.hpp"
#include "trace/view.hpp"

namespace tdt::trace {

namespace {

/// Runs a fresh TraceTransformer per evaluation, collecting its output
/// into the stage's batch vector. The transformer pushes per-record into
/// a downstream sink; pointing that sink at the current output vector
/// turns the push pipeline into a pull stage.
class TransformStage final : public ViewStage {
 public:
  TransformStage(const core::RuleSet& rules, TraceContext& ctx,
                 core::TransformOptions options,
                 core::TransformStats* stats_out)
      : transformer_(rules, ctx, collector_, options), stats_out_(stats_out) {}

  void on_batch(std::span<const TraceRecord> in,
                std::vector<TraceRecord>& out) override {
    // Rewrites are 1:1; injects add records, usually about as many as in
    // the batch before, so size the vector for that rather than let it
    // regrow (and copy) mid-batch.
    out.reserve(std::max(in.size(), last_out_));
    collector_.target = &out;
    transformer_.push_batch(in);
    collector_.target = nullptr;
    last_out_ = out.size();
  }

  void on_end(std::vector<TraceRecord>& out) override {
    collector_.target = &out;
    transformer_.on_end();
    collector_.target = nullptr;
    if (stats_out_ != nullptr) *stats_out_ = transformer_.stats();
  }

 private:
  struct Collector final : TraceSink {
    void on_record(const TraceRecord& rec) override {
      target->push_back(rec);
    }
    void push_batch(std::span<const TraceRecord> batch) override {
      target->insert(target->end(), batch.begin(), batch.end());
    }
    void on_end() override {}  // the stage's own on_end handles the tail

    std::vector<TraceRecord>* target = nullptr;
  };

  Collector collector_;  // must precede transformer_ (bound by reference)
  core::TraceTransformer transformer_;
  core::TransformStats* stats_out_;
  std::size_t last_out_ = 0;  // records the previous batch produced
};

}  // namespace

View View::transform(const core::RuleSet& rules) const {
  return transform(rules, core::TransformOptions{});
}

View View::transform(const core::RuleSet& rules,
                     const core::TransformOptions& options,
                     core::TransformStats* stats_out) const {
  return pipe(
      [&rules, options, stats_out](TraceContext& ctx) {
        return std::make_unique<TransformStage>(rules, ctx, options,
                                                stats_out);
      },
      "transform");
}

}  // namespace tdt::trace
