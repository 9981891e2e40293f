#include "trace/view.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <unordered_map>
#include <utility>

#include "trace/writer.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace tdt::trace {

namespace detail {

/// Persistent .cache(bytes) state. Lives on the node, so it survives
/// across Graph runs for as long as any View references the node.
struct CacheMemo {
  std::vector<SharedBatch> batches;
  bool complete = false;        ///< holds the node's full output stream
  std::uint64_t bytes = 0;      ///< payload bytes retained (and charged)
  Budget budget;                ///< own limit (= the node's cache_bytes)
  Budget* charged_to = nullptr; ///< evaluation budget also charged, if any
  std::uint64_t hits_total = 0; ///< lifetime batches served from the memo

  /// Drops everything and returns all charges.
  void drop() noexcept {
    batches.clear();
    complete = false;
    budget.release(bytes);
    if (charged_to != nullptr) charged_to->release(bytes);
    charged_to = nullptr;
    bytes = 0;
  }
};

struct ViewNode {
  enum class Kind : std::uint8_t {
    SourceFile,
    SourceText,
    SourceRecords,
    Filter,
    Window,
    Tee,
    Save,
    Cache,
    Pipe,
  };

  Kind kind = Kind::SourceFile;
  std::shared_ptr<ViewNode> upstream;
  TraceContext* ctx = nullptr;

  // Source parameters.
  std::string path_or_text;  // SourceFile path / SourceText payload
  ViewSourceOptions source_options;
  std::shared_ptr<const std::vector<TraceRecord>> records;  // SourceRecords

  // Operator parameters.
  std::function<bool(const TraceRecord&)> predicate;  // Filter
  std::uint64_t lo = 0;                               // Window
  std::uint64_t hi = 0;
  TraceSink* side_sink = nullptr;  // Tee
  std::string save_path;           // Save
  ViewSaveOptions save_options;
  std::uint64_t cache_limit = 0;  // Cache
  ViewStageFactory factory;       // Pipe
  std::string label = "pipe";     // Pipe metric id

  std::unique_ptr<CacheMemo> memo;  // Cache only
};

}  // namespace detail

namespace {

using detail::ViewNode;

[[nodiscard]] std::uint64_t batch_bytes(std::size_t records) noexcept {
  return static_cast<std::uint64_t>(records) * sizeof(TraceRecord);
}

// --- source cursors ---------------------------------------------------------

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

/// Opens the pull cursor for a source node.
std::unique_ptr<SourceCursor> open_cursor(const ViewNode& node) {
  switch (node.kind) {
    case ViewNode::Kind::SourceFile:
      return open_trace_cursor(*node.ctx, node.path_or_text,
                               node.source_options);
    case ViewNode::Kind::SourceText:
      return open_text_cursor(*node.ctx, node.path_or_text,
                              node.source_options.diags);
    case ViewNode::Kind::SourceRecords:
      return std::make_unique<RecordsCursor>(node.records);
    default:
      throw_config_error("view node is not a source");
  }
}

[[nodiscard]] std::string_view kind_label(const ViewNode& node) noexcept {
  switch (node.kind) {
    case ViewNode::Kind::SourceFile:
    case ViewNode::Kind::SourceText:
    case ViewNode::Kind::SourceRecords:
      return "source";
    case ViewNode::Kind::Filter:
      return "filter";
    case ViewNode::Kind::Window:
      return "window";
    case ViewNode::Kind::Tee:
      return "tee";
    case ViewNode::Kind::Save:
      return "save";
    case ViewNode::Kind::Cache:
      return "cache";
    case ViewNode::Kind::Pipe:
      return node.label;
  }
  return "node";
}

// --- evaluation -------------------------------------------------------------

/// Per-run state of one DAG node.
struct Stage {
  ViewNode* node = nullptr;
  Stage* parent = nullptr;
  std::vector<Stage*> children;    // discovery order
  std::vector<TraceSink*> sinks;   // registration order
  StageStats stats;

  std::unique_ptr<SourceCursor> cursor;  // roots
  std::unique_ptr<ViewStage> stage;      // Pipe
  std::ofstream save_out;                // Save
  std::optional<WriterSink> save_text;
  std::optional<BinaryTraceSink> save_binary;
  std::uint64_t seen = 0;  // Window input records
  bool memo_serving = false;
  bool memo_filling = false;
  bool ended = false;
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
    const bool memo_root = node->kind == ViewNode::Kind::Cache &&
                           node->memo != nullptr && node->memo->complete;
    s->memo_serving = memo_root;
    if (!memo_root && node->upstream != nullptr) {
      s->parent = ensure_stage(node->upstream);
      s->parent->children.push_back(s);
    }
    s->stats.id = std::string(kind_label(*node)) + std::to_string(next_id_++);
    by_node_.emplace(node.get(), s);
    stages_.push_back(std::move(stage));
    if (s->parent == nullptr) roots_.push_back(s);
    return s;
  }

  GraphResult run() {
    for (const auto& s : stages_) prepare(*s);
    for (Stage* root : roots_) {
      if (root->memo_serving) {
        run_memo_root(*root);
      } else {
        run_source_root(*root);
      }
      end_stage(*root);
    }
    finalize_metrics();
    return std::move(result_);
  }

 private:
  [[nodiscard]] Governor* governor() const noexcept {
    return options_.governor;
  }

  void prepare(Stage& s) {
    ViewNode& n = *s.node;
    switch (n.kind) {
      case ViewNode::Kind::Pipe:
        s.stage = n.factory(*n.ctx);
        break;
      case ViewNode::Kind::Save: {
        const bool binary = ends_with(n.save_path, ".tdtb");
        s.save_out.open(n.save_path, binary ? std::ios::binary | std::ios::out
                                            : std::ios::out);
        if (!s.save_out) {
          throw_io_error("cannot open '" + n.save_path + "' for writing");
        }
        if (binary) {
          s.save_binary.emplace(*n.ctx, s.save_out, n.save_options.pid,
                                n.save_options.binary);
          // Nothing is timed without a registry to report it.
          if (options_.registry != nullptr) s.save_binary->time_writes();
        } else {
          s.save_text.emplace(*n.ctx, s.save_out, n.save_options.pid);
        }
        break;
      }
      case ViewNode::Kind::Cache: {
        if (s.memo_serving) break;
        if (n.memo != nullptr && !n.memo->complete) n.memo->drop();
        if (n.cache_limit == 0) break;  // never retains: pure recompute
        if (n.memo == nullptr) n.memo = std::make_unique<detail::CacheMemo>();
        n.memo->budget.set_limit(n.cache_limit);
        s.memo_filling = true;
        break;
      }
      default:
        break;
    }
  }

  void run_source_root(Stage& root) {
    root.cursor = open_cursor(*root.node);
    for (;;) {
      std::vector<TraceRecord> batch;
      batch.reserve(kViewBatch);
      if (root.cursor->next_batch(batch, kViewBatch) == 0) break;
      result_.records += batch.size();
      emit_output(root, std::make_shared<std::vector<TraceRecord>>(
                            std::move(batch)));
      if (governor() != nullptr && governor()->expired()) {
        aborted_ = true;
        break;
      }
      if (root.sinks.empty() && !root.children.empty() && satisfied(root)) {
        break;  // every consumer has all it will ever take (lazy cut-off)
      }
    }
    root.cursor->finish(options_.registry);
    if (root.cursor->have_pid() && !have_pid_) {
      have_pid_ = true;
      result_.pid = root.cursor->pid();
    }
  }

  void run_memo_root(Stage& root) {
    detail::CacheMemo& memo = *root.node->memo;
    for (const SharedBatch& batch : memo.batches) {
      ++memo.hits_total;
      ++root.stats.cache_hits;
      emit_output(root, batch);
      if (governor() != nullptr && governor()->expired()) {
        aborted_ = true;
        break;
      }
      if (root.sinks.empty() && !root.children.empty() && satisfied(root)) {
        break;
      }
    }
  }

  /// True when nothing below `s` can consume another record: a window
  /// that has emitted its whole range, or a node whose consumers are all
  /// satisfied. Nodes with direct sinks (or with side effects spanning
  /// the full stream — filter, tee, save, pipe, cache) are never
  /// satisfied themselves.
  [[nodiscard]] static bool satisfied(const Stage& s) {
    if (s.node->kind == ViewNode::Kind::Window && s.seen >= s.node->hi) {
      return true;
    }
    if (s.node->kind != ViewNode::Kind::SourceFile &&
        s.node->kind != ViewNode::Kind::SourceText &&
        s.node->kind != ViewNode::Kind::SourceRecords &&
        s.node->kind != ViewNode::Kind::Cache) {
      return false;
    }
    if (!s.sinks.empty() || s.children.empty()) return false;
    return std::all_of(s.children.begin(), s.children.end(),
                       [](const Stage* c) { return satisfied_down(*c); });
  }

  [[nodiscard]] static bool satisfied_down(const Stage& s) {
    if (s.node->kind == ViewNode::Kind::Window && s.seen >= s.node->hi) {
      return true;
    }
    if (!s.sinks.empty()) return false;
    // Tee/save/cache side effects and filter/pipe outputs only matter to
    // someone below; with no consumers left unsatisfied the subtree is
    // done — except stages whose side effect itself spans the stream.
    if (s.node->kind == ViewNode::Kind::Tee ||
        s.node->kind == ViewNode::Kind::Save ||
        s.node->kind == ViewNode::Kind::Pipe || s.memo_filling) {
      return false;
    }
    if (s.children.empty()) return false;
    return std::all_of(s.children.begin(), s.children.end(),
                       [](const Stage* c) { return satisfied_down(*c); });
  }

  /// Feeds one input batch into `s`, applying its operator and passing
  /// any output to its sinks and children. Pass-through nodes forward
  /// the batch pointer itself.
  void accept(Stage& s, const SharedBatch& in) {
    ViewNode& n = *s.node;
    switch (n.kind) {
      case ViewNode::Kind::Filter: {
        auto out = std::make_shared<std::vector<TraceRecord>>();
        out->reserve(in->size());
        for (const TraceRecord& rec : *in) {
          if (n.predicate(rec)) out->push_back(rec);
        }
        emit_output(s, std::move(out));
        return;
      }
      case ViewNode::Kind::Window: {
        const std::uint64_t first = s.seen;
        s.seen += in->size();
        const std::uint64_t take_lo = std::max(first, n.lo);
        const std::uint64_t take_hi = std::min(s.seen, n.hi);
        if (take_lo >= take_hi) return;
        if (take_lo == first && take_hi == s.seen) {
          emit_output(s, in);  // whole batch inside: zero copy
          return;
        }
        const auto b =
            in->begin() + static_cast<std::ptrdiff_t>(take_lo - first);
        const auto e =
            in->begin() + static_cast<std::ptrdiff_t>(take_hi - first);
        emit_output(s, std::make_shared<std::vector<TraceRecord>>(b, e));
        return;
      }
      case ViewNode::Kind::Tee:
        n.side_sink->push_batch_shared(in);
        emit_output(s, in);
        return;
      case ViewNode::Kind::Save:
        if (s.save_binary) {
          s.save_binary->push_batch(*in);
        } else {
          s.save_text->push_batch(*in);
        }
        emit_output(s, in);
        return;
      case ViewNode::Kind::Cache:
        if (s.memo_filling) retain(s, in);
        emit_output(s, in);
        return;
      case ViewNode::Kind::Pipe: {
        auto out = std::make_shared<std::vector<TraceRecord>>();
        s.stage->on_batch(*in, *out);
        emit_output(s, std::move(out));
        return;
      }
      default:
        emit_output(s, in);
        return;
    }
  }

  /// Hands one output batch of `s` to its sinks (registration order)
  /// then its child nodes (discovery order), all sharing the one
  /// pointer. Empty batches are dropped — sinks only ever see non-empty
  /// batches.
  void emit_output(Stage& s, const SharedBatch& out) {
    if (out->empty()) return;
    ++s.stats.pulls;
    s.stats.records += out->size();
    for (TraceSink* sink : s.sinks) sink->push_batch_shared(out);
    for (Stage* child : s.children) accept(*child, out);
  }

  /// Appends a batch to the node's memo, spilling (drop everything,
  /// return all charges, stop retaining) on either budget's denial.
  void retain(Stage& s, const SharedBatch& in) {
    detail::CacheMemo& memo = *s.node->memo;
    const std::uint64_t bytes = batch_bytes(in->size());
    if (!memo.budget.try_charge(bytes)) {
      spill(s);
      return;
    }
    Budget* shared =
        governor() != nullptr ? &governor()->memory : memo.charged_to;
    if (shared != nullptr && !shared->try_charge(bytes)) {
      memo.budget.release(bytes);
      spill(s);
      return;
    }
    memo.charged_to = shared;
    memo.bytes += bytes;
    memo.batches.push_back(in);
  }

  void spill(Stage& s) {
    s.node->memo->drop();
    s.memo_filling = false;
  }

  /// End-of-stream wave: flush the operator, finish the sinks (exactly
  /// one on_end each, in registration order), then recurse.
  void end_stage(Stage& s) {
    if (s.ended) return;
    s.ended = true;
    switch (s.node->kind) {
      case ViewNode::Kind::Pipe: {
        auto tail = std::make_shared<std::vector<TraceRecord>>();
        s.stage->on_end(*tail);
        emit_output(s, std::move(tail));
        break;
      }
      case ViewNode::Kind::Tee:
        s.node->side_sink->on_end();
        break;
      case ViewNode::Kind::Save:
        if (s.save_binary) {
          s.save_binary->on_end();
        } else {
          s.save_text->on_end();
        }
        break;
      case ViewNode::Kind::Cache:
        if (s.memo_filling && !aborted_) s.node->memo->complete = true;
        break;
      default:
        break;
    }
    for (TraceSink* sink : s.sinks) sink->on_end();
    for (Stage* child : s.children) end_stage(*child);
  }

  void finalize_metrics() {
    result_.deadline_hit =
        governor() != nullptr && governor()->deadline_hit();
    for (const auto& s : stages_) {
      if (s->node->kind == ViewNode::Kind::Cache && s->node->memo != nullptr) {
        s->stats.cache_bytes = s->node->memo->bytes;
      }
      if (options_.registry != nullptr) {
        obs::Registry& reg = *options_.registry;
        reg.counter("view." + s->stats.id + ".pulls").add(s->stats.pulls);
        if (s->node->kind == ViewNode::Kind::Cache) {
          reg.counter("view." + s->stats.id + ".cache_hits")
              .add(s->stats.cache_hits);
          reg.gauge("view." + s->stats.id + ".cache_bytes")
              .set(static_cast<double>(s->stats.cache_bytes));
        }
        if (s->save_binary) fold_write_metrics(reg, s->save_binary->stats());
      }
      result_.stages.push_back(s->stats);
    }
  }

  EvalOptions options_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::unordered_map<ViewNode*, Stage*> by_node_;
  std::vector<Stage*> roots_;
  std::size_t next_id_ = 0;
  GraphResult result_;
  bool have_pid_ = false;
  bool aborted_ = false;
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
  node->kind = ViewNode::Kind::SourceFile;
  node->ctx = &ctx;
  node->path_or_text = std::move(path);
  node->source_options = options;
  return View(std::move(node));
}

View View::source_text(TraceContext& ctx, std::string text,
                       ViewSourceOptions options) {
  auto node = std::make_shared<ViewNode>();
  node->kind = ViewNode::Kind::SourceText;
  node->ctx = &ctx;
  node->path_or_text = std::move(text);
  node->source_options = options;
  return View(std::move(node));
}

View View::source_records(TraceContext& ctx,
                          std::vector<TraceRecord> records) {
  auto node = std::make_shared<ViewNode>();
  node->kind = ViewNode::Kind::SourceRecords;
  node->ctx = &ctx;
  node->records =
      std::make_shared<const std::vector<TraceRecord>>(std::move(records));
  return View(std::move(node));
}

View View::derive(detail::ViewNode&& node) const {
  if (node_ == nullptr) throw_config_error("view has no source");
  auto n = std::make_shared<ViewNode>(std::move(node));
  n->upstream = node_;
  n->ctx = node_->ctx;
  return View(std::move(n));
}

View View::filter(std::function<bool(const TraceRecord&)> pred) const {
  ViewNode n;
  n.kind = ViewNode::Kind::Filter;
  n.predicate = std::move(pred);
  return derive(std::move(n));
}

View View::window(std::uint64_t lo, std::uint64_t hi) const {
  ViewNode n;
  n.kind = ViewNode::Kind::Window;
  n.lo = lo;
  n.hi = std::max(lo, hi);
  return derive(std::move(n));
}

View View::tee(TraceSink& sink) const {
  ViewNode n;
  n.kind = ViewNode::Kind::Tee;
  n.side_sink = &sink;
  return derive(std::move(n));
}

View View::save(std::string path, ViewSaveOptions options) const {
  ViewNode n;
  n.kind = ViewNode::Kind::Save;
  n.save_path = std::move(path);
  n.save_options = options;
  return derive(std::move(n));
}

View View::cache(std::uint64_t bytes) const {
  ViewNode n;
  n.kind = ViewNode::Kind::Cache;
  n.cache_limit = bytes;
  return derive(std::move(n));
}

View View::pipe(ViewStageFactory factory, std::string label) const {
  ViewNode n;
  n.kind = ViewNode::Kind::Pipe;
  n.factory = std::move(factory);
  n.label = std::move(label);
  return derive(std::move(n));
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
