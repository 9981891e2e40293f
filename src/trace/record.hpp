// The trace record model: an in-memory representation of one Gleipnir
// trace line (paper Fig. 1):
//
//   [ S ] 7ff000108 [ malloc ] [ LS ] [ 0 ] [ 1 ] [ _zzq_args[5] ]
//    kind  address    function  scope  frame thread variable
//
// Function and variable names are interned in a TraceContext's StringPool
// so a record is cheap to copy and compare.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/small_vector.hpp"
#include "util/string_pool.hpp"

namespace tdt::trace {

/// Kind of memory event, matching Gleipnir's first trace column.
enum class AccessKind : std::uint8_t {
  Load,    ///< 'L' — data read
  Store,   ///< 'S' — data write
  Modify,  ///< 'M' — read-modify-write (e.g. i++)
  Instr,   ///< 'I' — instruction fetch (disabled in the paper's runs)
  Misc,    ///< 'X' — miscellaneous
};

/// Variable scope annotation, matching Gleipnir's LV/LS/GV/GS column.
enum class VarScope : std::uint8_t {
  Unknown,          ///< no symbol information on this line
  LocalVariable,    ///< LV — scalar local
  LocalStructure,   ///< LS — local aggregate (struct or array) element
  GlobalVariable,   ///< GV — scalar global
  GlobalStructure,  ///< GS — global aggregate element
};

/// The legal values of a record's fields: a kind or scope code names one
/// of the enumerators above, and an access covers 1 to 2^32 - 1 bytes.
/// Every trace reader refuses a record outside them, and the TDTB writer
/// refuses to write one.
[[nodiscard]] constexpr bool legal_kind_code(unsigned code) noexcept {
  return code <= static_cast<unsigned>(AccessKind::Misc);
}
[[nodiscard]] constexpr bool legal_scope_code(unsigned code) noexcept {
  return code <= static_cast<unsigned>(VarScope::GlobalStructure);
}
[[nodiscard]] constexpr bool legal_access_size(std::uint64_t size) noexcept {
  return size != 0 && size <= 0xFFFFFFFFull;
}

/// True for LS/GS scopes (aggregate element accesses).
[[nodiscard]] constexpr bool is_structure_scope(VarScope s) noexcept {
  return s == VarScope::LocalStructure || s == VarScope::GlobalStructure;
}

/// True for GV/GS scopes. Global accesses omit frame/thread in the text
/// format ("there is no need to identify the frame", paper §III-A).
[[nodiscard]] constexpr bool is_global_scope(VarScope s) noexcept {
  return s == VarScope::GlobalVariable || s == VarScope::GlobalStructure;
}

/// Single-character code for an access kind ('L', 'S', 'M', 'I', 'X').
[[nodiscard]] char access_kind_code(AccessKind k) noexcept;

/// Parses an access-kind code; returns false when `c` is not one.
[[nodiscard]] bool parse_access_kind(char c, AccessKind& out) noexcept;

/// Two-character scope code ("LV", "LS", "GV", "GS"; "" for Unknown).
[[nodiscard]] std::string_view var_scope_code(VarScope s) noexcept;

/// Parses a scope code; returns false when `text` is not one.
[[nodiscard]] bool parse_var_scope(std::string_view text,
                                   VarScope& out) noexcept;

/// One selector step inside a variable reference: either `.field` or
/// `[index]`. The index comes first, so the step packs into 16 bytes.
struct VarStep {
  std::uint64_t index = 0;  // valid when !is_field
  Symbol field;             // valid when is_field
  bool is_field = false;

  static VarStep make_field(Symbol f) { return VarStep{0, f, true}; }
  static VarStep make_index(std::uint64_t i) { return VarStep{i, {}, false}; }

  friend bool operator==(const VarStep& a, const VarStep& b) noexcept {
    return a.is_field == b.is_field &&
           (a.is_field ? a.field == b.field : a.index == b.index);
  }
};

/// A structured variable reference: base name plus selector chain, e.g.
/// glStructArray[0].myArray[1] -> base=glStructArray,
/// steps=[ [0], .myArray, [1] ].
struct VarRef {
  Symbol base;
  SmallVector<VarStep, 3> steps;

  [[nodiscard]] bool empty() const noexcept { return base.empty(); }

  friend bool operator==(const VarRef& a, const VarRef& b) noexcept {
    return a.base == b.base && a.steps == b.steps;
  }
};

/// Why a variable reference text did not parse (TraceContext::try_parse_var).
/// Kind::None means it did.
struct VarFault {
  enum class Kind : std::uint8_t {
    None,          ///< the text parsed
    NoIdentifier,  ///< the text does not start with an identifier
    NoField,       ///< a '.' is not followed by a field name
    Unterminated,  ///< a '[' has no matching ']'
    BadIndex,      ///< the text between '[' and ']' is not a number
    Unexpected,    ///< character `unexpected` cannot follow a selector
  };
  Kind kind = Kind::None;
  char unexpected = 0;

  [[nodiscard]] bool ok() const noexcept { return kind == Kind::None; }

  /// The parse error message for `text`, the reference that failed.
  [[nodiscard]] std::string message(std::string_view text) const;
};

/// One trace line. Every stage that holds records in flight (decode
/// slots, batches, fan-out queues, --max-memory charges) is sized in
/// these; `function` shares the word after `size`, where each of them
/// would otherwise leave a 4-byte hole.
struct TraceRecord {
  AccessKind kind = AccessKind::Load;
  VarScope scope = VarScope::Unknown;
  std::uint16_t frame = 0;
  std::uint16_t thread = 1;
  std::uint32_t size = 0;
  Symbol function;
  std::uint64_t address = 0;
  VarRef var;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

static_assert(sizeof(VarStep) == 16, "a selector step packs into 16 bytes");
static_assert(sizeof(TraceRecord) <= 96,
              "a record with three inline steps fits in 96 bytes");

/// Owns the string pool shared by all records of one trace pipeline and
/// provides formatting helpers that need name lookup.
class TraceContext {
 public:
  TraceContext() = default;

  [[nodiscard]] StringPool& pool() noexcept { return pool_; }
  [[nodiscard]] const StringPool& pool() const noexcept { return pool_; }

  /// Interns a name.
  Symbol intern(std::string_view s) { return pool_.intern(s); }

  /// Name for a symbol.
  [[nodiscard]] std::string_view name(Symbol s) const { return pool_.view(s); }

  /// Renders a variable reference ("lSoA.mX[3]").
  [[nodiscard]] std::string format_var(const VarRef& var) const;

  /// Parses a variable reference text ("glStructArray[0].dl") into
  /// interned form in `out`. On malformed text it returns why and leaves
  /// `out` as it was; the base and field names before the fault are
  /// interned all the same, in text order.
  [[nodiscard]] VarFault try_parse_var(std::string_view text, VarRef& out);

  /// Renders a full trace line exactly as Gleipnir prints it
  /// (no trailing newline).
  [[nodiscard]] std::string format_record(const TraceRecord& rec) const;

 private:
  StringPool pool_;
};

}  // namespace tdt::trace
