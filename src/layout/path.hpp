// Field paths: the bridge between symbolic trace metadata
// ("glStructArray[0].myArray[1]") and byte offsets inside a type. The
// transformation engine works almost entirely in terms of paths — a rule
// matches a path in the `in` layout and re-resolves it in the `out` layout.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "layout/type.hpp"
#include "util/small_vector.hpp"

namespace tdt::layout {

/// One step of a field path: either a struct-field selection by name or an
/// array-index selection.
struct PathStep {
  enum class Kind : std::uint8_t { Field, Index };

  Kind kind = Kind::Field;
  std::string field;        // when kind == Field
  std::uint64_t index = 0;  // when kind == Index

  static PathStep make_field(std::string name) {
    return PathStep{Kind::Field, std::move(name), 0};
  }
  static PathStep make_index(std::uint64_t i) {
    return PathStep{Kind::Index, {}, i};
  }

  [[nodiscard]] bool is_field() const noexcept { return kind == Kind::Field; }
  [[nodiscard]] bool is_index() const noexcept { return kind == Kind::Index; }

  friend bool operator==(const PathStep& a, const PathStep& b) {
    return a.kind == b.kind &&
           (a.kind == Kind::Field ? a.field == b.field : a.index == b.index);
  }
};

/// A sequence of path steps relative to some root type.
using Path = SmallVector<PathStep, 4>;

/// Result of resolving a path: the byte offset from the root and the type
/// of the addressed sub-object.
struct Resolved {
  std::uint64_t offset = 0;
  TypeId type = kInvalidType;
};

/// Resolves `path` against `root`. Throws Error{Semantic} on an unknown
/// field, an index applied to a non-array, or an out-of-range index.
[[nodiscard]] Resolved resolve_path(const TypeTable& table, TypeId root,
                                    std::span<const PathStep> path);

/// One step of an offset walk (offset_steps): a struct field named by its
/// position in `fields(owner)`, or an array element. It carries no name,
/// so a caller that wants one looks it up, or maps (owner, index) to a
/// name it interned once.
struct OffsetStep {
  TypeId owner = kInvalidType;  ///< the struct of a field step; invalid
                                ///< for an element step
  std::uint64_t index = 0;      ///< field position, or element index

  [[nodiscard]] bool is_field() const noexcept {
    return owner != kInvalidType;
  }
};

/// The steps from a root type down to the leaf holding an offset.
using OffsetPath = SmallVector<OffsetStep, 4>;

/// Maps a byte offset back to the deepest path containing it, writing the
/// steps to `out` (cleared first). Returns false when `offset` lands in
/// padding or outside the type. On success, `remainder` receives the
/// offset within the leaf (non-zero for unaligned sub-accesses into a
/// primitive).
[[nodiscard]] bool offset_steps(const TypeTable& table, TypeId root,
                                std::uint64_t offset, OffsetPath& out,
                                std::uint64_t* remainder = nullptr);

/// offset_steps with the field steps named: the deepest path containing
/// `offset`, or nullopt in padding or outside the type.
[[nodiscard]] std::optional<Path> path_at_offset(const TypeTable& table,
                                                 TypeId root,
                                                 std::uint64_t offset,
                                                 std::uint64_t* remainder = nullptr);

/// Invokes `fn(path, offset, leaf_type)` for every primitive/pointer leaf
/// of `root`, in layout order.
void for_each_leaf(
    const TypeTable& table, TypeId root,
    const std::function<void(const Path&, std::uint64_t, TypeId)>& fn);

/// Renders a path as Gleipnir prints it: ".mX[3]" / "[0].dl". Leading base
/// name is not included (it belongs to the variable, not the path).
[[nodiscard]] std::string format_path(std::span<const PathStep> path);

/// Parses the textual path form produced by format_path. Accepts an
/// optional leading '.'; throws Error{Parse} on malformed input.
[[nodiscard]] Path parse_path(std::string_view text);

/// Name-based structural equivalence of leaf field names between two types:
/// the paper's rules match `in`/`out` structures by element name. Returns
/// the leaf field names (ignoring indices) of `root` in layout order.
[[nodiscard]] std::vector<std::string> leaf_field_names(const TypeTable& table,
                                                        TypeId root);

}  // namespace tdt::layout
