#include "cache/sweep.hpp"

#include <cstdio>

#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace tdt::cache {

void merge_into(LevelStats& into, const LevelStats& from) {
  into.read_hits += from.read_hits;
  into.read_misses += from.read_misses;
  into.write_hits += from.write_hits;
  into.write_misses += from.write_misses;
  into.compulsory += from.compulsory;
  into.capacity += from.capacity;
  into.conflict += from.conflict;
  into.writebacks += from.writebacks;
  into.evictions += from.evictions;
  into.prefetches += from.prefetches;
  into.prefetch_hits += from.prefetch_hits;
}

ReplacementPolicy parse_replacement_policy(std::string_view text) {
  if (text == "lru") return ReplacementPolicy::Lru;
  if (text == "fifo") return ReplacementPolicy::Fifo;
  if (text == "random") return ReplacementPolicy::Random;
  if (text == "rr") return ReplacementPolicy::RoundRobin;
  throw_config_error("unknown replacement policy '" + std::string(text) +
                     "' (expected lru|fifo|random|rr)");
}

PrefetchPolicy parse_prefetch_policy(std::string_view text) {
  if (text == "none") return PrefetchPolicy::None;
  if (text == "always") return PrefetchPolicy::Always;
  if (text == "miss") return PrefetchPolicy::Miss;
  if (text == "tagged") return PrefetchPolicy::Tagged;
  throw_config_error("unknown prefetch policy '" + std::string(text) +
                     "' (expected none|always|miss|tagged)");
}

namespace {

// "8k" -> 8192, "2M" -> 2097152, "64" -> 64.
std::uint64_t parse_size_value(std::string_view text, std::string_view key) {
  const std::string_view whole = text;
  std::uint64_t scale = 1;
  if (!text.empty()) {
    const char last = text.back();
    if (last == 'k' || last == 'K') scale = 1024;
    if (last == 'm' || last == 'M') scale = 1024 * 1024;
    if (scale != 1) text.remove_suffix(1);
  }
  const auto value = parse_uint(text);
  if (!value.has_value()) {
    throw_config_error("sweep key '" + std::string(key) +
                       "' expects an unsigned size, got '" + std::string(text) +
                       "'");
  }
  if (*value > UINT64_MAX / scale) {
    throw_config_error("sweep key '" + std::string(key) + "' size '" +
                       std::string(whole) + "' does not fit in 64 bits");
  }
  return *value * scale;
}

void apply_override(CacheConfig& config, std::string_view key,
                    std::string_view value) {
  if (key == "size") {
    config.size = parse_size_value(value, key);
  } else if (key == "block") {
    config.block_size = parse_size_value(value, key);
  } else if (key == "assoc") {
    const auto v = parse_uint(value);
    if (!v.has_value()) {
      throw_config_error("sweep key 'assoc' expects an unsigned value, got '" +
                         std::string(value) + "'");
    }
    if (*v > UINT32_MAX) {
      throw_config_error("sweep key 'assoc' must be at most " +
                         std::to_string(UINT32_MAX) + ", got '" +
                         std::string(value) + "'");
    }
    config.assoc = static_cast<std::uint32_t>(*v);
  } else if (key == "repl" || key == "replacement") {
    config.replacement = parse_replacement_policy(value);
  } else if (key == "prefetch") {
    config.prefetch = parse_prefetch_policy(value);
  } else {
    throw_config_error("unknown sweep key '" + std::string(key) +
                       "' (expected size|block|assoc|repl|prefetch)");
  }
}

}  // namespace

std::string SweepPoint::label() const {
  return levels.empty() ? std::string("<empty>") : levels.front().describe();
}

std::vector<SweepPoint> parse_sweep_spec(
    std::string_view spec, const CacheConfig& base,
    const std::vector<CacheConfig>& extra_levels,
    std::vector<std::string>* warnings) {
  if (trim(spec).empty()) {
    throw_config_error("sweep spec is empty");
  }
  std::vector<SweepPoint> points;
  std::size_t point_index = 0;
  for (std::string_view point_spec : split(spec, ';')) {
    CacheConfig config = base;
    point_spec = trim(point_spec);
    if (!point_spec.empty()) {
      for (std::string_view override_spec : split(point_spec, ',')) {
        override_spec = trim(override_spec);
        if (override_spec.empty()) continue;
        const std::size_t eq = override_spec.find('=');
        if (eq == std::string_view::npos) {
          throw_config_error("sweep override '" + std::string(override_spec) +
                             "' is not key=value");
        }
        apply_override(config, override_spec.substr(0, eq),
                       override_spec.substr(eq + 1));
      }
    }
    config.validate();
    SweepPoint point;
    point.levels.push_back(std::move(config));
    point.levels.insert(point.levels.end(), extra_levels.begin(),
                        extra_levels.end());
    // Two spellings can resolve to the same configuration ("assoc=1" vs
    // "size=32k,assoc=1" under the default base); keep the first.
    bool duplicate = false;
    for (const SweepPoint& existing : points) {
      if (existing.levels == point.levels) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      if (warnings != nullptr) {
        warnings->push_back("duplicate sweep point " +
                            std::to_string(point_index) + " ('" +
                            point.label() + "') dropped");
      }
    } else {
      points.push_back(std::move(point));
    }
    ++point_index;
  }
  if (points.empty()) {
    throw_config_error("sweep spec is empty");
  }
  return points;
}

ParallelSweep::ParallelSweep(std::vector<SweepPoint> points,
                             SimOptions base_options, PageMapSpec page_map)
    : points_(std::move(points)) {
  for (const SweepPoint& point : points_) {
    SimOptions options = base_options;
    if (page_map.policy != PagePolicy::Identity) {
      mappers_.emplace_back(page_map.policy, page_map.page_size,
                            page_map.frames, page_map.seed);
      options.page_mapper = &mappers_.back();
    }
    hierarchies_.emplace_back(point.levels);
    sims_.emplace_back(hierarchies_.back(), options);
  }
}

std::vector<trace::TraceSink*> ParallelSweep::sinks() {
  std::vector<trace::TraceSink*> out;
  out.reserve(sims_.size());
  for (TraceCacheSim& sim : sims_) out.push_back(&sim);
  return out;
}

LevelStats ParallelSweep::merged_l1() const {
  LevelStats merged;
  for (const CacheHierarchy& h : hierarchies_) {
    merge_into(merged, h.l1().stats());
  }
  return merged;
}

std::string ParallelSweep::report() const {
  std::string out;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    out += "=== sweep point " + std::to_string(i) + ": " + points_[i].label() +
           " ===\n";
    out += hierarchies_[i].report();
  }
  TextTable table({"point", "config", "accesses", "misses", "miss ratio"});
  table.set_align(1, Align::Left);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const LevelStats& s = hierarchies_[i].l1().stats();
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.4f", s.miss_ratio());
    table.add_row({std::to_string(i), points_[i].label(),
                   std::to_string(s.accesses()), std::to_string(s.misses()),
                   ratio});
  }
  out += "sweep summary:\n" + table.render();
  const LevelStats merged = merged_l1();
  out += "merged L1 totals: " + std::to_string(merged.accesses()) +
         " accesses, " + std::to_string(merged.misses()) + " misses\n";
  return out;
}

}  // namespace tdt::cache
