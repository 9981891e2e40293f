#include "cache/config.hpp"

#include <bit>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace tdt::cache {
namespace {

bool is_pow2(std::uint64_t v) noexcept { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

std::string_view to_string(ReplacementPolicy p) noexcept {
  switch (p) {
    case ReplacementPolicy::Lru: return "lru";
    case ReplacementPolicy::Fifo: return "fifo";
    case ReplacementPolicy::Random: return "random";
    case ReplacementPolicy::RoundRobin: return "round-robin";
  }
  return "?";
}

std::string_view to_string(WritePolicy p) noexcept {
  switch (p) {
    case WritePolicy::WriteBack: return "write-back";
    case WritePolicy::WriteThrough: return "write-through";
  }
  return "?";
}

std::string_view to_string(AllocPolicy p) noexcept {
  switch (p) {
    case AllocPolicy::WriteAllocate: return "write-allocate";
    case AllocPolicy::NoWriteAllocate: return "no-write-allocate";
  }
  return "?";
}

std::string_view to_string(PrefetchPolicy p) noexcept {
  switch (p) {
    case PrefetchPolicy::None: return "no-prefetch";
    case PrefetchPolicy::Always: return "prefetch-always";
    case PrefetchPolicy::Miss: return "prefetch-on-miss";
    case PrefetchPolicy::Tagged: return "tagged-prefetch";
  }
  return "?";
}

void CacheConfig::validate() const {
  if (!is_pow2(block_size)) {
    throw_config_error("cache '" + name + "': block_size " +
                       std::to_string(block_size) + " is not a power of two");
  }
  if (!is_pow2(size) || size < block_size) {
    throw_config_error("cache '" + name + "': size " + std::to_string(size) +
                       " must be a power of two >= block_size");
  }
  const std::uint64_t blocks = num_blocks();
  const std::uint32_t ways = effective_assoc();
  if (ways == 0 || blocks % ways != 0) {
    throw_config_error("cache '" + name + "': associativity " +
                       std::to_string(assoc) + " does not divide " +
                       std::to_string(blocks) + " blocks");
  }
  if (!is_pow2(num_sets())) {
    throw_config_error("cache '" + name + "': set count " +
                       std::to_string(num_sets()) + " is not a power of two");
  }
}

CacheGeometry CacheConfig::geometry() const {
  validate();
  CacheGeometry g;
  g.block_shift = static_cast<unsigned>(std::countr_zero(block_size));
  g.set_mask = num_sets() - 1;
  g.ways = effective_assoc();
  g.blocks = num_blocks();
  return g;
}

std::string CacheConfig::describe() const {
  std::string out = name;
  out += ' ';
  out += format_bytes(size);
  out += ", ";
  out += format_bytes(block_size);
  out += " blocks, ";
  out += assoc == 0 ? "fully" : std::to_string(assoc) + "-way";
  out += " associative, ";
  out += to_string(replacement);
  out += ", ";
  out += to_string(write);
  if (prefetch != PrefetchPolicy::None) {
    out += ", ";
    out += to_string(prefetch);
  }
  return out;
}

CacheConfig paper_direct_mapped() {
  CacheConfig c;
  c.name = "paper-dm";
  c.size = 32 * 1024;
  c.block_size = 32;
  c.assoc = 1;
  c.replacement = ReplacementPolicy::Lru;  // irrelevant at 1-way
  return c;
}

CacheConfig ppc440() {
  CacheConfig c;
  c.name = "ppc440";
  c.size = 32 * 1024;
  c.block_size = 32;
  c.assoc = 64;
  c.replacement = ReplacementPolicy::RoundRobin;
  return c;
}

CacheConfig modern_l1() {
  CacheConfig c;
  c.name = "modern-l1d";
  c.size = 32 * 1024;
  c.block_size = 64;
  c.assoc = 8;
  c.replacement = ReplacementPolicy::Lru;
  return c;
}

CacheConfig modern_l2() {
  CacheConfig c;
  c.name = "modern-l2";
  c.size = 256 * 1024;
  c.block_size = 64;
  c.assoc = 8;
  c.replacement = ReplacementPolicy::Lru;
  return c;
}

}  // namespace tdt::cache
