// The interpreter's runtime values and the simulated memory that holds
// them between a store and the loads that read it back.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "layout/type.hpp"

namespace tdt::tracer {

/// A runtime value: integer, floating, or pointer. A value holds one
/// payload, the field its kind names, as the from_* constructors build it.
struct Value {
  enum class Kind : std::uint8_t { Int, Real, Ptr };

  Kind kind = Kind::Int;
  std::int64_t i = 0;
  double d = 0;
  std::uint64_t addr = 0;
  layout::TypeId pointee = layout::kInvalidType;

  static Value from_int(std::int64_t v) {
    Value out;
    out.kind = Kind::Int;
    out.i = v;
    return out;
  }
  static Value from_real(double v) {
    Value out;
    out.kind = Kind::Real;
    out.d = v;
    return out;
  }
  static Value from_ptr(std::uint64_t a, layout::TypeId pointee) {
    Value out;
    out.kind = Kind::Ptr;
    out.addr = a;
    out.pointee = pointee;
    return out;
  }

  [[nodiscard]] std::int64_t as_int() const noexcept {
    switch (kind) {
      case Kind::Int: return i;
      case Kind::Real: return static_cast<std::int64_t>(d);
      case Kind::Ptr: return static_cast<std::int64_t>(addr);
    }
    return 0;
  }
  [[nodiscard]] double as_real() const noexcept {
    switch (kind) {
      case Kind::Int: return static_cast<double>(i);
      case Kind::Real: return d;
      case Kind::Ptr: return static_cast<double>(addr);
    }
    return 0;
  }
};

/// The value last stored at each simulated address. A value is kept
/// whole, whatever the width of the store (an int field holds all 64
/// bits), with its kind and pointee, under the address the store starts
/// at; any address will do. Nothing removes a value, so it outlives the
/// variable it was stored through: a local declared later at a reused
/// stack slot, or a heap block handed out again after a free, reads it.
///
/// Memory is kept in 256-byte pages, found through an open-addressed
/// index. A page holds a 16-byte cell for each address stored at, sorted
/// by offset. A store allocates only when a page's cells grow, and memory
/// follows the number of addresses stored at, not the span they cover.
class Memory {
 public:
  /// The value last stored at `address`; nullopt when none was.
  [[nodiscard]] std::optional<Value> load(std::uint64_t address) const;

  /// Stores `v` at `address`, replacing what was there.
  void store(std::uint64_t address, const Value& v);

 private:
  static constexpr unsigned kPageBits = 8;
  static constexpr unsigned kFirstIndexBits = 10;

  struct Cell {
    std::uint64_t payload = 0;  ///< i, the bits of d, or addr, by kind
    layout::TypeId pointee = layout::kInvalidType;
    std::uint8_t offset = 0;    ///< address within the page
    Value::Kind kind = Value::Kind::Int;
  };
  static_assert(sizeof(Cell) == 16);
  struct Page {
    std::uint64_t number = 0;  ///< address >> kPageBits
    std::vector<Cell> cells;   ///< sorted by offset
  };

  /// The index slot that holds page `number`, or the free slot where it
  /// would go.
  [[nodiscard]] std::size_t probe(std::uint64_t number) const noexcept;
  [[nodiscard]] const Page* find(std::uint64_t number) const;
  /// Page `number`, added when absent.
  Page& page(std::uint64_t number);
  static bool before(const Cell& cell, std::uint8_t offset) noexcept;

  std::vector<Page> pages_;
  // pages_ position + 1 by page number's hash; 0 = free.
  std::vector<std::uint32_t> index_ =
      std::vector<std::uint32_t>(std::size_t{1} << kFirstIndexBits);
  unsigned index_bits_ = kFirstIndexBits;  // index_.size() == 1 << this
};

}  // namespace tdt::tracer
