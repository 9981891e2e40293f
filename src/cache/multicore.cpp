#include "cache/multicore.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tdt::cache {
namespace {

std::uint64_t touch_key(std::uint32_t core, std::uint64_t block) {
  return (static_cast<std::uint64_t>(core) << 48) ^ block;
}

}  // namespace

MultiCoreSim::MultiCoreSim(MesiSystem& system, const trace::TraceContext& ctx)
    : system_(&system), geo_(system.geometry()), ctx_(&ctx) {}

void MultiCoreSim::on_record(const trace::TraceRecord& rec) {
  // A record of no bytes touches no block.
  if (rec.kind == trace::AccessKind::Instr || rec.size == 0) return;
  const std::uint32_t core =
      (rec.thread == 0 ? 0u : static_cast<std::uint32_t>(rec.thread) - 1u) %
      system_->cores();
  const bool is_write = rec.kind == trace::AccessKind::Store ||
                        rec.kind == trace::AccessKind::Modify;
  const std::uint64_t rec_last = span_last_byte(rec.address, rec.size);
  std::uint64_t block = geo_.block_of(rec.address);

  // Counted: the last block may be UINT64_MAX, which `block <= last`
  // never passes.
  for (std::uint64_t left = geo_.block_of(rec_last) - block + 1; left > 0;
       --left, ++block) {
    // This block's share of the record, as an inclusive byte range.
    const std::uint64_t first = std::max(rec.address, geo_.base_of(block));
    const std::uint64_t last =
        std::min(rec_last, geo_.base_of(block) | geo_.offset_mask());
    const CoherenceOutcome outcome = system_->access(core, first, is_write);

    if (outcome.invalidated != 0) {
      // Classify each remote copy we killed by whether the victim's last
      // bytes in this line overlap ours.
      for (std::uint32_t other = 0; other < system_->cores(); ++other) {
        if (other == core) continue;
        auto it = last_touch_.find(touch_key(other, block));
        if (it == last_touch_.end() || !it->second.valid) continue;
        const Touch& t = it->second;
        const bool overlap = first <= t.last && t.first <= last;
        if (overlap) {
          ++true_sharing_;
        } else {
          ++false_sharing_;
          const std::string writer = rec.var.empty()
                                         ? std::string("<anon>")
                                         : std::string(ctx_->name(rec.var.base));
          const std::string victim =
              t.var.empty() ? std::string("<anon>")
                            : std::string(ctx_->name(t.var));
          ++pairs_[{writer, victim}];
        }
        it->second.valid = false;  // the copy is gone
      }
    }
    // Record this core's touch.
    Touch& mine = last_touch_[touch_key(core, block)];
    mine.first = first;
    mine.last = last;
    mine.var = rec.var.base;
    mine.valid = true;
  }
}

void MultiCoreSim::simulate(std::span<const trace::TraceRecord> records) {
  for (const trace::TraceRecord& rec : records) on_record(rec);
  on_end();
}

std::string MultiCoreSim::report() const {
  std::string out = system_->report();
  out += "sharing: " + std::to_string(true_sharing_) + " true, " +
         std::to_string(false_sharing_) + " false invalidations\n";
  for (const auto& [pair, count] : pairs_) {
    out += "  false sharing: " + pair.first + " invalidates " + pair.second +
           " x" + std::to_string(count) + "\n";
  }
  return out;
}

}  // namespace tdt::cache

namespace tdt::trace {

std::vector<TraceRecord> interleave_threads(
    std::vector<std::vector<TraceRecord>> threads, std::size_t chunk) {
  internal_check(chunk > 0, "interleave chunk must be positive");
  std::vector<TraceRecord> out;
  std::size_t total = 0;
  for (const auto& t : threads) total += t.size();
  out.reserve(total);
  std::vector<std::size_t> cursor(threads.size(), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t t = 0; t < threads.size(); ++t) {
      for (std::size_t k = 0; k < chunk && cursor[t] < threads[t].size();
           ++k) {
        TraceRecord rec = threads[t][cursor[t]++];
        rec.thread = static_cast<std::uint16_t>(t + 1);
        out.push_back(std::move(rec));
        progress = true;
      }
    }
  }
  return out;
}

}  // namespace tdt::trace
