// Symbol table binding variable names to (type, base address, scope).
// Plays the role of the compiler-generated symbol table Gleipnir's debug
// parser reads (paper §III-A): given a raw address the table answers
// "which variable, and which element inside it".
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "layout/path.hpp"
#include "layout/type.hpp"
#include "memsim/address_space.hpp"
#include "trace/record.hpp"

namespace tdt::memsim {

/// A declared variable.
struct VarInfo {
  std::string name;
  layout::TypeId type = layout::kInvalidType;
  std::uint64_t base = 0;
  bool global = false;
  std::uint16_t frame = 0;  ///< frame id for locals
  /// `name` interned, once a record names this variable. Left to the
  /// first record because symbol ids are assigned in first-use order.
  mutable Symbol symbol;

  /// Gleipnir scope code for an access to this variable: LV/LS for locals,
  /// GV/GS for globals, the S variants when the variable is an aggregate.
  [[nodiscard]] trace::VarScope scope(const layout::TypeTable& table) const;
};

/// Result of an address lookup: the variable plus the element path inside
/// it ("glStructArray" + "[0].myArray[1]"), with fields by position.
struct AddressResolution {
  const VarInfo* var = nullptr;
  layout::OffsetPath steps;
  std::uint64_t offset_in_leaf = 0;
};

/// Scoped symbol table backed by an AddressSpace for address assignment.
class SymbolTable {
 public:
  SymbolTable(const layout::TypeTable& types, AddressSpace& space);

  /// Declares a global, allocating it in the data segment.
  const VarInfo& declare_global(std::string name, layout::TypeId type);

  /// Declares a local in the current frame (stack allocation).
  const VarInfo& declare_local(std::string name, layout::TypeId type);

  /// Declares a variable at a caller-chosen address (used by the
  /// transformation engine when it places the `out` structure itself).
  const VarInfo& declare_at(std::string name, layout::TypeId type,
                            std::uint64_t address, bool global);

  /// Opens a scope (function call): pushes a stack frame.
  void push_scope();

  /// Closes the innermost scope, dropping its variables.
  void pop_scope();

  /// Innermost-first name lookup. nullptr when not found.
  [[nodiscard]] const VarInfo* lookup(std::string_view name) const;

  /// Maps an address to the innermost, latest-declared variable covering
  /// it and the element path inside that variable, written to `out`.
  /// Returns false when no live variable covers the address, or it lands
  /// in struct padding.
  [[nodiscard]] bool resolve_address(std::uint64_t address,
                                     AddressResolution& out) const;

  /// All live variables, globals first, then locals outermost-first.
  [[nodiscard]] std::vector<const VarInfo*> live_variables() const;

  [[nodiscard]] const layout::TypeTable& types() const noexcept {
    return *types_;
  }
  [[nodiscard]] AddressSpace& space() noexcept { return *space_; }

 private:
  const layout::TypeTable* types_;
  AddressSpace* space_;
  // Deques give returned VarInfo references stability across later
  // declarations in the same scope.
  std::vector<std::deque<VarInfo>> scopes_;  // scopes_[0] = globals
};

}  // namespace tdt::memsim
