#include "trace/record.hpp"

#include "trace/writer.hpp"
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

std::string VarFault::message(std::string_view text) const {
  std::string out;
  switch (kind) {
    case Kind::None:
      return out;
    case Kind::NoIdentifier:
      out = "variable reference must start with an identifier: '";
      break;
    case Kind::NoField:
      out = "expected field after '.' in '";
      break;
    case Kind::Unterminated:
      out = "unterminated '[' in '";
      break;
    case Kind::BadIndex:
      out = "bad index in '";
      break;
    case Kind::Unexpected:
      out = "unexpected '";
      out += unexpected;
      out += "' in '";
      break;
  }
  out += text;
  out += '\'';
  return out;
}

VarFault TraceContext::try_parse_var(std::string_view text, VarRef& out) {
  using Kind = VarFault::Kind;
  VarRef ref;
  std::size_t i = 0;
  if (i >= text.size() || !is_ident_start(text[i])) {
    return {Kind::NoIdentifier};
  }
  std::size_t start = i;
  while (i < text.size() && is_ident_char(text[i])) ++i;
  ref.base = pool_.intern(text.substr(start, i - start));
  while (i < text.size()) {
    if (text[i] == '.') {
      ++i;
      start = i;
      if (i >= text.size() || !is_ident_start(text[i])) return {Kind::NoField};
      while (i < text.size() && is_ident_char(text[i])) ++i;
      ref.steps.push_back(
          VarStep::make_field(pool_.intern(text.substr(start, i - start))));
    } else if (text[i] == '[') {
      ++i;
      start = i;
      while (i < text.size() && text[i] != ']') ++i;
      if (i >= text.size()) return {Kind::Unterminated};
      const auto idx = parse_uint(text.substr(start, i - start));
      if (!idx) return {Kind::BadIndex};
      ref.steps.push_back(VarStep::make_index(*idx));
      ++i;
    } else {
      return {Kind::Unexpected, text[i]};
    }
  }
  out = std::move(ref);
  return {};
}

std::string TraceContext::format_record(const TraceRecord& rec) const {
  TextEncoder encoder(*this);
  encoder.record(rec);
  const std::string_view line = encoder.bytes();
  return std::string(line.substr(0, line.size() - 1));  // drop the newline
}

}  // namespace tdt::trace
