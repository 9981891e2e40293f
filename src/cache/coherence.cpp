#include "cache/coherence.hpp"

#include <unordered_map>

#include "util/error.hpp"

namespace tdt::cache {

std::string_view to_string(Mesi m) noexcept {
  switch (m) {
    case Mesi::Invalid: return "I";
    case Mesi::Shared: return "S";
    case Mesi::Exclusive: return "E";
    case Mesi::Modified: return "M";
  }
  return "?";
}

MesiSystem::MesiSystem(CacheConfig config, std::uint32_t cores)
    : config_(std::move(config)), geo_(config_.geometry()) {
  internal_check(cores >= 1, "MesiSystem needs at least one core");
  per_core_.resize(cores);
  for (Core& c : per_core_) c.lines.assign(geo_.blocks, Line{});
}

MesiSystem::Line* MesiSystem::find_line(Core& core, std::uint64_t block) {
  const std::uint64_t set = geo_.set_index(block);
  const std::uint32_t ways = geo_.ways;
  Line* base = &core.lines[set * ways];
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (base[w].state != Mesi::Invalid && base[w].block == block) {
      return &base[w];
    }
  }
  return nullptr;
}

MesiSystem::Line& MesiSystem::victim_line(Core& core, std::uint64_t set) {
  const std::uint32_t ways = geo_.ways;
  Line* base = &core.lines[set * ways];
  Line* victim = base;
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (base[w].state == Mesi::Invalid) return base[w];
    if (base[w].last_use < victim->last_use) victim = &base[w];
  }
  return *victim;  // LRU
}

CoherenceOutcome MesiSystem::access(std::uint32_t core_id,
                                    std::uint64_t address, bool is_write) {
  internal_check(core_id < per_core_.size(), "core id out of range");
  ++clock_;
  Core& self = per_core_[core_id];
  const std::uint64_t block = geo_.block_of(address);
  const std::uint64_t set = geo_.set_index(block);

  CoherenceOutcome out;
  out.core = core_id;
  out.block = block;
  out.set = set;

  Line* line = find_line(self, block);
  if (line != nullptr) {
    out.hit = true;
    line->last_use = clock_;
    if (!is_write) {
      ++self.stats.read_hits;
      out.new_state = line->state;
      return out;
    }
    ++self.stats.write_hits;
    if (line->state == Mesi::Shared) {
      // Upgrade: invalidate every remote copy.
      ++self.stats.upgrades;
      for (std::uint32_t other = 0; other < per_core_.size(); ++other) {
        if (other == core_id) continue;
        if (Line* remote = find_line(per_core_[other], block)) {
          remote->state = Mesi::Invalid;
          per_core_[other].invalidated_blocks[block] = true;
          ++per_core_[other].stats.invalidations;
          ++out.invalidated;
        }
      }
    }
    line->state = Mesi::Modified;
    out.new_state = Mesi::Modified;
    return out;
  }

  // Miss.
  out.hit = false;
  if (auto it = self.invalidated_blocks.find(block);
      it != self.invalidated_blocks.end()) {
    out.coherence_miss = true;
    ++self.stats.coherence_misses;
    self.invalidated_blocks.erase(it);
  }
  (is_write ? self.stats.write_misses : self.stats.read_misses)++;

  // Snoop the other cores.
  bool any_remote_copy = false;
  for (std::uint32_t other = 0; other < per_core_.size(); ++other) {
    if (other == core_id) continue;
    Line* remote = find_line(per_core_[other], block);
    if (remote == nullptr) continue;
    if (is_write) {
      if (remote->state == Mesi::Modified) {
        ++per_core_[other].stats.writebacks;
      }
      remote->state = Mesi::Invalid;
      per_core_[other].invalidated_blocks[block] = true;
      ++per_core_[other].stats.invalidations;
      ++out.invalidated;
    } else {
      if (remote->state == Mesi::Modified) {
        ++per_core_[other].stats.writebacks;
      }
      remote->state = Mesi::Shared;
      any_remote_copy = true;
    }
  }

  // Fill, evicting the LRU way if needed.
  Line& victim = victim_line(self, set);
  if (victim.state == Mesi::Modified) {
    ++self.stats.writebacks;
  }
  victim.block = block;
  victim.last_use = clock_;
  victim.state = is_write ? Mesi::Modified
                          : (any_remote_copy ? Mesi::Shared : Mesi::Exclusive);
  out.new_state = victim.state;
  return out;
}

const CoreStats& MesiSystem::core_stats(std::uint32_t core) const {
  internal_check(core < per_core_.size(), "core id out of range");
  return per_core_[core].stats;
}

std::uint64_t MesiSystem::total_invalidations() const noexcept {
  std::uint64_t total = 0;
  for (const Core& c : per_core_) total += c.stats.invalidations;
  return total;
}

Mesi MesiSystem::state_of(std::uint32_t core, std::uint64_t block) const {
  internal_check(core < per_core_.size(), "core id out of range");
  // const_cast-free scan.
  const std::uint64_t set = geo_.set_index(block);
  const std::uint32_t ways = geo_.ways;
  const Line* base = &per_core_[core].lines[set * ways];
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (base[w].state != Mesi::Invalid && base[w].block == block) {
      return base[w].state;
    }
  }
  return Mesi::Invalid;
}

std::string MesiSystem::report() const {
  std::string out = "MESI system: " + std::to_string(per_core_.size()) +
                    " cores x (" + config_.describe() + ")\n";
  for (std::uint32_t c = 0; c < per_core_.size(); ++c) {
    const CoreStats& s = per_core_[c].stats;
    out += "  core " + std::to_string(c) + ": " + std::to_string(s.hits()) +
           " hits, " + std::to_string(s.misses()) + " misses (" +
           std::to_string(s.coherence_misses) + " coherence), " +
           std::to_string(s.invalidations) + " invalidations received, " +
           std::to_string(s.upgrades) + " upgrades\n";
  }
  return out;
}

}  // namespace tdt::cache
