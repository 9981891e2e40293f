#include "trace/record.hpp"

#include "trace/writer.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace tdt::trace {

char access_kind_code(AccessKind k) noexcept {
  switch (k) {
    case AccessKind::Load: return 'L';
    case AccessKind::Store: return 'S';
    case AccessKind::Modify: return 'M';
    case AccessKind::Instr: return 'I';
    case AccessKind::Misc: return 'X';
  }
  return '?';
}

bool parse_access_kind(char c, AccessKind& out) noexcept {
  switch (c) {
    case 'L': out = AccessKind::Load; return true;
    case 'S': out = AccessKind::Store; return true;
    case 'M': out = AccessKind::Modify; return true;
    case 'I': out = AccessKind::Instr; return true;
    case 'X': out = AccessKind::Misc; return true;
  }
  return false;
}

std::string_view var_scope_code(VarScope s) noexcept {
  switch (s) {
    case VarScope::Unknown: return "";
    case VarScope::LocalVariable: return "LV";
    case VarScope::LocalStructure: return "LS";
    case VarScope::GlobalVariable: return "GV";
    case VarScope::GlobalStructure: return "GS";
  }
  return "";
}

bool parse_var_scope(std::string_view text, VarScope& out) noexcept {
  if (text == "LV") { out = VarScope::LocalVariable; return true; }
  if (text == "LS") { out = VarScope::LocalStructure; return true; }
  if (text == "GV") { out = VarScope::GlobalVariable; return true; }
  if (text == "GS") { out = VarScope::GlobalStructure; return true; }
  return false;
}

std::string TraceContext::format_var(const VarRef& var) const {
  TextEncoder encoder(*this);
  encoder.var(var);
  return std::string(encoder.bytes());
}

VarRef TraceContext::parse_var(std::string_view text) {
  VarRef ref;
  std::size_t i = 0;
  if (i >= text.size() || !is_ident_start(text[i])) {
    throw_parse_error("variable reference must start with an identifier: '" +
                      std::string(text) + "'");
  }
  std::size_t start = i;
  while (i < text.size() && is_ident_char(text[i])) ++i;
  ref.base = pool_.intern(text.substr(start, i - start));
  while (i < text.size()) {
    if (text[i] == '.') {
      ++i;
      start = i;
      if (i >= text.size() || !is_ident_start(text[i])) {
        throw_parse_error("expected field after '.' in '" + std::string(text) +
                          "'");
      }
      while (i < text.size() && is_ident_char(text[i])) ++i;
      ref.steps.push_back(
          VarStep::make_field(pool_.intern(text.substr(start, i - start))));
    } else if (text[i] == '[') {
      ++i;
      start = i;
      while (i < text.size() && text[i] != ']') ++i;
      if (i >= text.size()) {
        throw_parse_error("unterminated '[' in '" + std::string(text) + "'");
      }
      auto idx = parse_uint(text.substr(start, i - start));
      if (!idx) {
        throw_parse_error("bad index in '" + std::string(text) + "'");
      }
      ref.steps.push_back(VarStep::make_index(*idx));
      ++i;
    } else {
      throw_parse_error("unexpected '" + std::string(1, text[i]) + "' in '" +
                        std::string(text) + "'");
    }
  }
  return ref;
}

bool TraceContext::try_parse_var(std::string_view text, VarRef& out) {
  VarRef ref;
  std::size_t i = 0;
  if (i >= text.size() || !is_ident_start(text[i])) return false;
  std::size_t start = i;
  while (i < text.size() && is_ident_char(text[i])) ++i;
  ref.base = pool_.intern(text.substr(start, i - start));
  while (i < text.size()) {
    if (text[i] == '.') {
      ++i;
      start = i;
      if (i >= text.size() || !is_ident_start(text[i])) return false;
      while (i < text.size() && is_ident_char(text[i])) ++i;
      ref.steps.push_back(
          VarStep::make_field(pool_.intern(text.substr(start, i - start))));
    } else if (text[i] == '[') {
      ++i;
      start = i;
      while (i < text.size() && text[i] != ']') ++i;
      if (i >= text.size()) return false;
      const auto idx = parse_uint(text.substr(start, i - start));
      if (!idx) return false;
      ref.steps.push_back(VarStep::make_index(*idx));
      ++i;
    } else {
      return false;
    }
  }
  out = std::move(ref);
  return true;
}

std::string TraceContext::format_record(const TraceRecord& rec) const {
  TextEncoder encoder(*this);
  encoder.record(rec);
  const std::string_view line = encoder.bytes();
  return std::string(line.substr(0, line.size() - 1));  // drop the newline
}

}  // namespace tdt::trace
