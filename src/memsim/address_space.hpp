// Model of the traced process's virtual address space. Gleipnir traces
// show three address regions (paper Listing 2): a stack around
// 0x7ff000000 growing downward (locals), a data segment around 0x601000
// (globals), and a heap. The synthetic tracer allocates variables here so
// that generated traces carry realistic, correctly aligned addresses —
// the only address property cache behaviour depends on.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace tdt::memsim {

/// Address-space region.
enum class Segment : std::uint8_t { Stack, Globals, Heap };

/// Configurable segment bases, defaulting to the ranges visible in the
/// paper's trace listings.
struct AddressSpaceConfig {
  std::uint64_t stack_base = 0x7ff000000ULL;   ///< top of stack (grows down)
  std::uint64_t global_base = 0x000601000ULL;  ///< data segment (grows up)
  std::uint64_t heap_base = 0x000a00000ULL;    ///< heap (grows up)
  std::uint64_t stack_limit = 0x7fe000000ULL;  ///< lowest legal stack address
};

/// Throws Error{Config} "simulated heap overflow" unless `count` objects
/// of `size` bytes fit in the heap of `config`, the range [heap_base,
/// stack_limit). When it returns, `count * size` does not overflow.
void check_heap_fits(const AddressSpaceConfig& config, std::uint64_t count,
                     std::uint64_t size);

/// Segmented allocator with stack-frame discipline and a first-fit
/// free-list heap.
class AddressSpace {
 public:
  explicit AddressSpace(AddressSpaceConfig config = {});

  // --- globals ----------------------------------------------------------

  /// Allocates `size` bytes in the data segment at `align` alignment.
  std::uint64_t alloc_global(std::uint64_t size, std::uint64_t align);

  // --- stack ------------------------------------------------------------

  /// Opens a new stack frame; returns its frame id (0-based, outermost
  /// first — matching the frame column of Gleipnir trace lines).
  std::uint16_t push_frame();

  /// Allocates `size` bytes in the current frame (stack grows down).
  /// Throws Error{Config} when the stack would overflow `stack_limit`.
  std::uint64_t alloc_stack(std::uint64_t size, std::uint64_t align);

  /// Closes the current frame, releasing its allocations.
  void pop_frame();

  /// Current frame id; 0 when only the outermost frame is open.
  [[nodiscard]] std::uint16_t current_frame() const noexcept;

  // --- heap -------------------------------------------------------------

  /// Allocates `size` bytes on the simulated heap (16-byte aligned like
  /// glibc malloc). Returns the block address. Throws Error{Config} when
  /// the block does not fit below `stack_limit`.
  std::uint64_t heap_alloc(std::uint64_t size);

  /// Frees a block previously returned by heap_alloc.
  /// Throws Error{Semantic} on a double free or an unknown pointer.
  void heap_free(std::uint64_t address);

  /// Bytes currently allocated on the heap.
  [[nodiscard]] std::uint64_t heap_live_bytes() const noexcept {
    return heap_live_;
  }

  // --- queries ----------------------------------------------------------

  /// Classifies an address by segment based on the configured bases.
  [[nodiscard]] Segment segment_of(std::uint64_t address) const noexcept;

  [[nodiscard]] const AddressSpaceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Frame {
    std::uint64_t top;  ///< next free address going down
  };

  AddressSpaceConfig config_;
  std::uint64_t global_cursor_;
  std::vector<Frame> frames_;

  // Heap: cursor bump plus a free list keyed by address, storing size.
  std::uint64_t heap_cursor_;
  std::uint64_t heap_live_ = 0;
  std::map<std::uint64_t, std::uint64_t> heap_blocks_;  ///< live: addr->size
  std::map<std::uint64_t, std::uint64_t> heap_free_;    ///< free: addr->size
};

}  // namespace tdt::memsim
