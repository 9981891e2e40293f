#include "memsim/address_space.hpp"

#include "layout/type.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace tdt::memsim {

using layout::align_up;

void check_heap_fits(const AddressSpaceConfig& config, std::uint64_t count,
                     std::uint64_t size) {
  const std::uint64_t room = config.stack_limit > config.heap_base
                                 ? config.stack_limit - config.heap_base
                                 : 0;
  if (size != 0 && count > room / size) {
    throw_config_error("simulated heap overflow (limit 0x" +
                       to_hex(config.stack_limit) + ")");
  }
}

AddressSpace::AddressSpace(AddressSpaceConfig config)
    : config_(config),
      global_cursor_(config.global_base),
      heap_cursor_(config.heap_base) {
  frames_.push_back(Frame{config_.stack_base});
}

std::uint64_t AddressSpace::alloc_global(std::uint64_t size,
                                         std::uint64_t align) {
  internal_check(size > 0 && align > 0, "bad global allocation request");
  global_cursor_ = align_up(global_cursor_, align);
  const std::uint64_t addr = global_cursor_;
  global_cursor_ += size;
  return addr;
}

std::uint16_t AddressSpace::push_frame() {
  frames_.push_back(Frame{frames_.back().top});
  return current_frame();
}

std::uint64_t AddressSpace::alloc_stack(std::uint64_t size,
                                        std::uint64_t align) {
  internal_check(size > 0 && align > 0, "bad stack allocation request");
  Frame& frame = frames_.back();
  // Compare before subtracting: frame.top - size must not wrap.
  const bool fits = frame.top >= config_.stack_limit &&
                    size <= frame.top - config_.stack_limit;
  std::uint64_t addr = fits ? frame.top - size : 0;
  addr -= addr % align;  // align downward
  if (!fits || addr < config_.stack_limit) {
    throw_config_error("simulated stack overflow (limit 0x" +
                       to_hex(config_.stack_limit) + ")");
  }
  frame.top = addr;
  return addr;
}

void AddressSpace::pop_frame() {
  internal_check(frames_.size() > 1, "pop_frame on outermost frame");
  frames_.pop_back();
}

std::uint16_t AddressSpace::current_frame() const noexcept {
  return static_cast<std::uint16_t>(frames_.size() - 1);
}

std::uint64_t AddressSpace::heap_alloc(std::uint64_t size) {
  internal_check(size > 0, "heap_alloc of zero bytes");
  // A block larger than the whole heap fits nowhere, and checking that
  // first keeps the rounding from wrapping.
  check_heap_fits(config_, 1, size);
  size = align_up(size, 16);
  // First fit over the free list.
  for (auto it = heap_free_.begin(); it != heap_free_.end(); ++it) {
    if (it->second >= size) {
      const std::uint64_t addr = it->first;
      const std::uint64_t remaining = it->second - size;
      heap_free_.erase(it);
      if (remaining != 0) {
        heap_free_.emplace(addr + size, remaining);
      }
      heap_blocks_.emplace(addr, size);
      heap_live_ += size;
      return addr;
    }
  }
  // The room above the cursor, compared before adding.
  check_heap_fits(
      {.heap_base = heap_cursor_, .stack_limit = config_.stack_limit}, 1, size);
  const std::uint64_t addr = heap_cursor_;
  heap_cursor_ += size;
  heap_blocks_.emplace(addr, size);
  heap_live_ += size;
  return addr;
}

void AddressSpace::heap_free(std::uint64_t address) {
  auto it = heap_blocks_.find(address);
  if (it == heap_blocks_.end()) {
    throw_semantic_error("heap_free of unknown or already-freed address");
  }
  const std::uint64_t size = it->second;
  heap_blocks_.erase(it);
  heap_live_ -= size;

  // Insert into the free list, coalescing with neighbours.
  auto [pos, inserted] = heap_free_.emplace(address, size);
  internal_check(inserted, "free list corruption");
  // Coalesce with successor.
  auto next = std::next(pos);
  if (next != heap_free_.end() && pos->first + pos->second == next->first) {
    pos->second += next->second;
    heap_free_.erase(next);
  }
  // Coalesce with predecessor.
  if (pos != heap_free_.begin()) {
    auto prev = std::prev(pos);
    if (prev->first + prev->second == pos->first) {
      prev->second += pos->second;
      heap_free_.erase(pos);
    }
  }
}

Segment AddressSpace::segment_of(std::uint64_t address) const noexcept {
  if (address >= config_.stack_limit) return Segment::Stack;
  if (address >= config_.heap_base) return Segment::Heap;
  return Segment::Globals;
}

}  // namespace tdt::memsim
