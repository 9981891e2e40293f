#include "analysis/set_activity.hpp"

#include "util/error.hpp"

namespace tdt::analysis {

SetActivityCollector::SetActivityCollector(const trace::TraceContext& ctx,
                                           std::uint64_t num_sets)
    : ctx_(&ctx), num_sets_(num_sets) {
  internal_check(num_sets > 0, "collector needs at least one set");
  empty_.assign(num_sets_, SetCell{});
}

void SetActivityCollector::on_access(const trace::TraceRecord& rec,
                                     const cache::AccessOutcome& outcome) {
  internal_check(outcome.set < num_sets_,
                 "outcome set exceeds collector width");
  const std::uint32_t id = rec.var.base.id();
  std::uint32_t slot =
      id < slot_by_symbol_.size() ? slot_by_symbol_[id] : std::uint32_t{0};
  if (slot == 0) slot = add_symbol(rec.var.base);
  SetCell& cell = cells_[slot - 1][outcome.set];
  if (outcome.hit) {
    ++cell.hits;
  } else {
    ++cell.misses;
  }
}

std::uint32_t SetActivityCollector::add_symbol(Symbol base) {
  const std::string_view name =
      base.empty() ? std::string_view("<anon>") : ctx_->name(base);
  const auto [it, fresh] = by_name_.try_emplace(
      std::string(name), static_cast<std::uint32_t>(names_.size()));
  if (fresh) {
    names_.emplace_back(name);
    cells_.emplace_back(num_sets_);
  }
  if (base.id() >= slot_by_symbol_.size()) {
    slot_by_symbol_.resize(std::size_t{base.id()} + 1, 0);
  }
  return slot_by_symbol_[base.id()] = it->second + 1;
}

const std::vector<SetCell>& SetActivityCollector::series(
    const std::string& variable) const {
  if (auto it = by_name_.find(variable); it != by_name_.end()) {
    return cells_[it->second];
  }
  return empty_;
}

std::vector<SetCell> SetActivityCollector::totals() const {
  std::vector<SetCell> out(num_sets_);
  for (const std::vector<SetCell>& cells : cells_) {
    for (std::uint64_t s = 0; s < num_sets_; ++s) {
      out[s].hits += cells[s].hits;
      out[s].misses += cells[s].misses;
    }
  }
  return out;
}

std::vector<std::uint64_t> SetActivityCollector::active_sets(
    const std::string& variable) const {
  std::vector<std::uint64_t> out;
  const std::vector<SetCell>& cells = series(variable);
  for (std::uint64_t s = 0; s < cells.size(); ++s) {
    if (cells[s].hits != 0 || cells[s].misses != 0) out.push_back(s);
  }
  return out;
}

}  // namespace tdt::analysis
