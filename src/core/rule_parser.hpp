// Parser for the transformation-rule DSL (paper Listings 5, 8, 11).
//
// A rule file is a sequence of rules, each:
//
//   in:
//     <struct definitions; the LAST one names the matched trace variable>
//   out:
//     <one or more out structures; `}[N];` suffixes make them arrays;
//      a `+ field:pool;` member declares a pointer link (outlining)>
//   inject:                          (optional extension, see DESIGN.md)
//     L <name> <size>;               (auxiliary accesses per remap)
//
// Stride rules use scalar array syntax instead of structs:
//
//   in:
//     int lContiguousArray[1024]:lSetHashingArray;
//   out:
//     int lSetHashingArray[16384((lI/8)*(16*8)+(lI%8))];
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/rules.hpp"

namespace tdt::core {

/// Parses a rule file's text into a RuleSet with its own TypeTable.
/// Throws Error{Parse} / Error{Semantic} on malformed input.
[[nodiscard]] RuleSet parse_rules(std::string_view text);

/// Reads and parses a rule file from disk. Throws Error{Io} when the file
/// cannot be read.
[[nodiscard]] RuleSet parse_rules_file(const std::string& path);

/// Renders a rule back to canonical DSL text (round-trip/debugging aid).
[[nodiscard]] std::string render_rule(const layout::TypeTable& types,
                                      const TransformRule& rule);

/// Serializes every rule of `set` in canonical DSL text, in rule order.
/// The output reparses with parse_rules() to an equivalent RuleSet
/// (same rules, same layouts) and re-serializes to identical text — the
/// round-trip contract the autotuner's candidate generator relies on.
void write_rules(const RuleSet& set, std::ostream& out);

/// String form of write_rules.
[[nodiscard]] std::string write_rules_string(const RuleSet& set);

}  // namespace tdt::core
