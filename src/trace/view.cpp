#include "trace/view.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"

namespace tdt::trace {

namespace detail {

/// A source (no upstream: a trace file, or `records` when set) or a
/// pipe stage over its upstream.
struct ViewNode {
  std::shared_ptr<ViewNode> upstream;
  TraceContext* ctx = nullptr;

  std::string path;  // file source
  ViewSourceOptions source_options;
  std::shared_ptr<const std::vector<TraceRecord>> records;  // records source

  ViewStageFactory factory;  // pipe
  std::string label;         // pipe metric id
};

}  // namespace detail

namespace {

using detail::ViewNode;

/// In-memory records, sliced into kViewBatch batches.
class RecordsCursor final : public SourceCursor {
 public:
  explicit RecordsCursor(std::shared_ptr<const std::vector<TraceRecord>> recs)
      : records_(std::move(recs)) {}

  std::size_t next_batch(std::vector<TraceRecord>& out,
                         std::size_t max) override {
    const std::size_t n = std::min(max, records_->size() - pos_);
    out.insert(out.end(), records_->begin() + static_cast<std::ptrdiff_t>(pos_),
               records_->begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return n;
  }

  void finish(obs::Registry*) override {}

 private:
  std::shared_ptr<const std::vector<TraceRecord>> records_;
  std::size_t pos_ = 0;
};

// --- evaluation -------------------------------------------------------------

/// Per-run state of one DAG node.
struct Stage {
  ViewNode* node = nullptr;
  std::vector<Stage*> children;   // discovery order
  std::vector<TraceSink*> sinks;  // registration order
  StageStats stats;
  std::unique_ptr<ViewStage> stage;  // pipe nodes
};

class Evaluator {
 public:
  explicit Evaluator(const EvalOptions& options) : options_(options) {}

  Stage* ensure_stage(const std::shared_ptr<ViewNode>& node) {
    if (const auto it = by_node_.find(node.get()); it != by_node_.end()) {
      return it->second;
    }
    auto stage = std::make_unique<Stage>();
    Stage* s = stage.get();
    s->node = node.get();
    if (node->upstream != nullptr) {
      ensure_stage(node->upstream)->children.push_back(s);
    }
    s->stats.id = (node->upstream != nullptr ? node->label : "source") +
                  std::to_string(next_id_++);
    by_node_.emplace(node.get(), s);
    stages_.push_back(std::move(stage));
    if (node->upstream == nullptr) roots_.push_back(s);
    return s;
  }

  GraphResult run() {
    for (const auto& s : stages_) {
      if (s->node->factory) s->stage = s->node->factory(*s->node->ctx);
    }
    for (Stage* root : roots_) {
      run_source(*root);
      end_stage(*root);
    }
    finalize_metrics();
    return std::move(result_);
  }

 private:
  void run_source(Stage& root) {
    const ViewNode& n = *root.node;
    const std::unique_ptr<SourceCursor> cursor =
        n.records != nullptr
            ? std::make_unique<RecordsCursor>(n.records)
            : open_trace_cursor(*n.ctx, n.path, n.source_options);
    for (;;) {
      std::vector<TraceRecord> batch;
      batch.reserve(kViewBatch);
      if (cursor->next_batch(batch, kViewBatch) == 0) break;
      result_.records += batch.size();
      emit(root, std::make_shared<std::vector<TraceRecord>>(std::move(batch)));
      if (options_.governor != nullptr && options_.governor->expired()) break;
    }
    cursor->finish(options_.registry);
    if (cursor->have_pid() && !have_pid_) {
      have_pid_ = true;
      result_.pid = cursor->pid();
    }
  }

  /// Hands one output batch of `s` to its sinks (registration order),
  /// then runs each child stage (discovery order) over it; sinks share
  /// the one pointer. Empty batches are dropped — sinks only ever see
  /// non-empty batches.
  void emit(Stage& s, const SharedBatch& out) {
    if (out->empty()) return;
    ++s.stats.pulls;
    s.stats.records += out->size();
    for (TraceSink* sink : s.sinks) sink->push_batch_shared(out);
    for (Stage* child : s.children) {
      auto next = std::make_shared<std::vector<TraceRecord>>();
      child->stage->on_batch(*out, *next);
      emit(*child, std::move(next));
    }
  }

  /// End-of-stream wave: flush the stage's tail, finish the sinks
  /// (exactly one on_end each, in registration order), then recurse.
  void end_stage(Stage& s) {
    if (s.stage != nullptr) {
      auto tail = std::make_shared<std::vector<TraceRecord>>();
      s.stage->on_end(*tail);
      emit(s, std::move(tail));
    }
    for (TraceSink* sink : s.sinks) sink->on_end();
    for (Stage* child : s.children) end_stage(*child);
  }

  void finalize_metrics() {
    result_.deadline_hit =
        options_.governor != nullptr && options_.governor->deadline_hit();
    for (const auto& s : stages_) {
      if (options_.registry != nullptr) {
        options_.registry->counter("view." + s->stats.id + ".pulls")
            .add(s->stats.pulls);
      }
      result_.stages.push_back(std::move(s->stats));
    }
  }

  EvalOptions options_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::unordered_map<ViewNode*, Stage*> by_node_;
  std::vector<Stage*> roots_;
  std::size_t next_id_ = 0;
  GraphResult result_;
  bool have_pid_ = false;
};

}  // namespace

// --- View builders ----------------------------------------------------------

const StageStats* GraphResult::stage(std::string_view id) const noexcept {
  for (const StageStats& s : stages) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

View View::source(TraceContext& ctx, std::string path,
                  ViewSourceOptions options) {
  auto node = std::make_shared<ViewNode>();
  node->ctx = &ctx;
  node->path = std::move(path);
  node->source_options = options;
  return View(std::move(node));
}

View View::source_records(TraceContext& ctx,
                          std::vector<TraceRecord> records) {
  auto node = std::make_shared<ViewNode>();
  node->ctx = &ctx;
  node->records =
      std::make_shared<const std::vector<TraceRecord>>(std::move(records));
  return View(std::move(node));
}

View View::pipe(ViewStageFactory factory, std::string label) const {
  if (node_ == nullptr) throw_config_error("view has no source");
  auto node = std::make_shared<ViewNode>();
  node->upstream = node_;
  node->ctx = node_->ctx;
  node->factory = std::move(factory);
  node->label = std::move(label);
  return View(std::move(node));
}

GraphResult View::drain(TraceSink& sink, const EvalOptions& options) const {
  Graph g;
  g.add_sink(*this, sink);
  return g.run(options);
}

std::vector<TraceRecord> View::collect(const EvalOptions& options) const {
  VectorSink sink;
  drain(sink, options);
  return sink.take();
}

// --- Graph ------------------------------------------------------------------

void Graph::add_sink(const View& v, TraceSink& sink) {
  if (v.node_ == nullptr) throw_config_error("view has no source");
  sinks_.emplace_back(v.node_, &sink);
}

GraphResult Graph::run(const EvalOptions& options) {
  Evaluator eval(options);
  for (const auto& [node, sink] : sinks_) {
    eval.ensure_stage(node)->sinks.push_back(sink);
  }
  return eval.run();
}

}  // namespace tdt::trace
