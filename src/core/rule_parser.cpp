#include "core/rule_parser.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "layout/decl_parser.hpp"
#include "util/error.hpp"

namespace tdt::core {
namespace {

using layout::DeclParser;
using layout::PendingField;
using layout::StructDecl;
using layout::TypeId;
using layout::TypeTable;

/// Section keyword ("in" / "out" / "inject") followed by ':'.
bool at_section(Lexer& lex, std::string_view word) {
  return lex.peek().is(word);
}

void expect_section(Lexer& lex, std::string_view word) {
  Token t = lex.expect(TokKind::Ident, "section keyword");
  if (t.text != word) {
    throw_parse_error("expected '" + std::string(word) + ":', got '" +
                          std::string(t.text) + "'",
                      t.loc);
  }
  lex.expect(":");
}

/// Parses one out struct whose body may contain `+ field:pool;` pointer
/// links. Returns the OutVar and appends links.
OutVar parse_out_struct(Lexer& lex, TypeTable& types,
                        std::vector<PointerLink>& links) {
  DeclParser decls(types);
  lex.expect("struct");
  Token name = lex.expect(TokKind::Ident, "struct name");
  lex.expect("{");
  std::vector<PendingField> fields;
  std::vector<std::pair<std::string, std::string>> pending_links;
  while (!lex.accept("}")) {
    if (lex.accept("+")) {
      Token field = lex.expect(TokKind::Ident, "pointer field name");
      lex.expect(":");
      Token pool = lex.expect(TokKind::Ident, "pool variable name");
      lex.expect(";");
      const TypeId pool_struct = types.find_struct(std::string(pool.text));
      if (pool_struct == layout::kInvalidType) {
        throw_parse_error("pointer link references unknown structure '" +
                              std::string(pool.text) +
                              "' (declare the pool before its owner)",
                          pool.loc);
      }
      fields.push_back(PendingField{std::string(field.text),
                                    types.pointer_to(pool_struct)});
      pending_links.emplace_back(std::string(field.text),
                                 std::string(pool.text));
      continue;
    }
    if (lex.peek().is("struct")) {
      lex.next();
      Token inner = lex.expect(TokKind::Ident, "struct name");
      const TypeId st = types.find_struct(inner.text);
      if (st == layout::kInvalidType) {
        throw_parse_error("reference to undefined struct '" +
                              std::string(inner.text) + "'",
                          inner.loc);
      }
      if (lex.accept(";")) {
        fields.push_back(PendingField{std::string(inner.text), st});
        continue;
      }
      layout::VarDecl d = decls.parse_declarator(lex, st);
      lex.expect(";");
      fields.push_back(PendingField{std::move(d.name), d.type});
      continue;
    }
    const TypeId base = decls.parse_type_spec(lex);
    layout::VarDecl d = decls.parse_declarator(lex, base);
    lex.expect(";");
    fields.push_back(PendingField{std::move(d.name), d.type});
  }
  std::uint64_t count = 0;
  if (lex.accept("[")) {
    count = lex.expect(TokKind::Number, "array length").number();
    lex.expect("]");
  }
  lex.expect(";");

  const TypeId struct_type =
      types.define_struct(std::string(name.text), std::move(fields));
  OutVar out;
  out.name = std::string(name.text);
  out.type = count == 0 ? struct_type : types.array_of(struct_type, count);
  for (auto& [field, pool] : pending_links) {
    links.push_back(PointerLink{out.name, std::move(field), std::move(pool)});
  }
  return out;
}

/// Parses the in-section of a stride rule after the element type:
///   <name>[N]:<out name>;
StrideRule parse_stride_in(Lexer& lex, TypeTable& types, TypeId elem) {
  StrideRule rule;
  rule.elem_type = elem;
  Token name = lex.expect(TokKind::Ident, "array name");
  rule.in_name = std::string(name.text);
  lex.expect("[");
  rule.in_count = lex.expect(TokKind::Number, "array length").number();
  lex.expect("]");
  lex.expect(":");
  Token out = lex.expect(TokKind::Ident, "target array name");
  rule.out_name = std::string(out.text);
  lex.expect(";");
  (void)types;
  return rule;
}

/// Parses the out-section of a stride rule:
///   int <name>[<count>(<formula>)];
void parse_stride_out(Lexer& lex, TypeTable& types, StrideRule& rule) {
  DeclParser decls(types);
  const TypeId elem = decls.parse_type_spec(lex);
  if (elem != rule.elem_type) {
    throw_parse_error("stride out element type differs from in element type",
                      lex.loc());
  }
  Token name = lex.expect(TokKind::Ident, "array name");
  if (name.text != rule.out_name) {
    throw_parse_error("stride out array is named '" + std::string(name.text) +
                          "' but the in rule targets '" + rule.out_name + "'",
                      name.loc);
  }
  lex.expect("[");
  rule.out_count = lex.expect(TokKind::Number, "array length").number();
  lex.expect("(");
  rule.formula = parse_formula(lex);
  lex.expect(")");
  lex.expect("]");
  lex.expect(";");
}

/// Parses the optional inject section body: `<K> <name> <size>;`*
std::vector<InjectSpec> parse_injects(Lexer& lex) {
  std::vector<InjectSpec> out;
  while (!lex.at_end() && !at_section(lex, "in")) {
    Token kind = lex.expect(TokKind::Ident, "access kind (L/S/M)");
    InjectSpec spec;
    if (kind.text.size() != 1 ||
        !trace::parse_access_kind(kind.text[0], spec.kind)) {
      throw_parse_error("bad inject access kind '" + std::string(kind.text) +
                            "'",
                        kind.loc);
    }
    spec.name =
        std::string(lex.expect(TokKind::Ident, "inject variable name").text);
    const Token size = lex.expect(TokKind::Number, "access size");
    if (!trace::legal_access_size(size.number())) {
      throw_parse_error("bad inject access size '" + std::string(size.text) +
                            "' (1 to 4294967295 bytes)",
                        size.loc);
    }
    spec.size = static_cast<std::uint32_t>(size.number());
    lex.expect(";");
    out.push_back(std::move(spec));
  }
  return out;
}

}  // namespace

RuleSet parse_rules(std::string_view text) {
  TypeTable types;
  std::vector<TransformRule> parsed;
  Lexer lex(text);
  DeclParser decls(types);

  while (!lex.at_end()) {
    expect_section(lex, "in");
    if (lex.peek().is("struct")) {
      // Struct rule: struct definitions; the last one is the matched
      // variable.
      StructRule rule;
      StructDecl last;
      bool any = false;
      while (lex.peek().is("struct")) {
        last = decls.parse_struct_decl(lex);
        any = true;
      }
      if (!any) {
        throw_parse_error("in-section has no struct definition", lex.loc());
      }
      rule.in_name = last.name;
      rule.in_type = last.array_count == 0
                         ? last.type
                         : types.array_of(last.type, last.array_count);

      expect_section(lex, "out");
      while (!lex.at_end() && lex.peek().is("struct")) {
        rule.outs.push_back(parse_out_struct(lex, types, rule.links));
      }
      if (rule.outs.empty()) {
        throw_parse_error("out-section has no struct definition", lex.loc());
      }
      if (!lex.at_end() && at_section(lex, "inject")) {
        expect_section(lex, "inject");
        // Injects on struct rules are accepted but rarely useful.
        auto injects = parse_injects(lex);
        if (!injects.empty()) {
          throw_parse_error(
              "inject sections are only supported on stride rules");
        }
      }
      parsed.emplace_back(std::move(rule));
    } else {
      // Stride rule.
      const TypeId elem = decls.parse_type_spec(lex);
      StrideRule rule = parse_stride_in(lex, types, elem);
      expect_section(lex, "out");
      parse_stride_out(lex, types, rule);
      if (!lex.at_end() && at_section(lex, "inject")) {
        expect_section(lex, "inject");
        rule.injects = parse_injects(lex);
      }
      parsed.emplace_back(std::move(rule));
    }
  }

  RuleSet set(std::move(types));
  for (TransformRule& r : parsed) set.add(std::move(r));
  // Surface validation errors immediately; warnings are the caller's to
  // inspect via RuleSet::validate().
  for (const RuleDiagnostic& d : set.validate()) {
    if (d.severity == RuleDiagnostic::Severity::Error) {
      throw_semantic_error("rule validation failed: " + d.message);
    }
  }
  return set;
}

RuleSet parse_rules_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw_io_error("cannot open rule file '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_rules(buf.str());
}

namespace {

/// Emits definitions of structs referenced by `struct_type`'s fields
/// (recursively) so the rendered rule reparses standalone.
void render_nested_defs(const TypeTable& types, TypeId struct_type,
                        std::vector<std::string>& emitted, std::string& out) {
  for (const layout::FieldInfo& f : types.fields(struct_type)) {
    TypeId t = f.type;
    while (types.kind(t) == layout::TypeKind::Array) t = types.element(t);
    if (types.kind(t) != layout::TypeKind::Struct) continue;
    const std::string name(types.name(t));
    if (std::find(emitted.begin(), emitted.end(), name) != emitted.end()) {
      continue;
    }
    emitted.push_back(name);
    render_nested_defs(types, t, emitted, out);
    out += "struct " + name + " {\n";
    for (const layout::FieldInfo& inner : types.fields(t)) {
      TypeId it = inner.type;
      std::string dims;
      while (types.kind(it) == layout::TypeKind::Array) {
        dims += '[';
        dims += std::to_string(types.array_count(it));
        dims += ']';
        it = types.element(it);
      }
      out += "  " + types.render(it) + " " + inner.name + dims + ";\n";
    }
    out += "};\n";
  }
}

void render_struct_body(const TypeTable& types, TypeId struct_type,
                        const std::vector<PointerLink>& links,
                        std::string_view owner, std::string& out) {
  out += " {\n";
  for (const layout::FieldInfo& f : types.fields(struct_type)) {
    bool is_link = false;
    for (const PointerLink& link : links) {
      if (link.owner == owner && link.field == f.name) {
        out += "  + " + link.field + ":" + link.pool + ";\n";
        is_link = true;
        break;
      }
    }
    if (is_link) continue;
    if (types.kind(f.type) == layout::TypeKind::Struct &&
        types.name(f.type) == f.name) {
      out += "  struct " + f.name + ";\n";
      continue;
    }
    // Render `elem name[dims...]`.
    TypeId t = f.type;
    std::string dims;
    while (types.kind(t) == layout::TypeKind::Array) {
      dims += '[';
      dims += std::to_string(types.array_count(t));
      dims += ']';
      t = types.element(t);
    }
    out += "  " + types.render(t) + " " + f.name + dims + ";\n";
  }
  out += "}";
}

}  // namespace

std::string render_rule(const layout::TypeTable& types,
                        const TransformRule& rule) {
  std::string out;
  if (const auto* stride = std::get_if<StrideRule>(&rule)) {
    out += "in:\n" + types.render(stride->elem_type) + " " + stride->in_name +
           "[" + std::to_string(stride->in_count) + "]:" + stride->out_name +
           ";\nout:\n" + types.render(stride->elem_type) + " " +
           stride->out_name + "[" + std::to_string(stride->out_count) + "(" +
           stride->formula.render() + ")];\n";
    if (!stride->injects.empty()) {
      out += "inject:\n";
      for (const InjectSpec& inj : stride->injects) {
        out += std::string(1, trace::access_kind_code(inj.kind)) + " " +
               inj.name + " " + std::to_string(inj.size) + ";\n";
      }
    }
    return out;
  }
  const auto& sr = std::get<StructRule>(rule);
  out += "in:\n";
  TypeId in_struct = sr.in_type;
  std::uint64_t in_count = 0;
  if (types.kind(in_struct) == layout::TypeKind::Array) {
    in_count = types.array_count(in_struct);
    in_struct = types.element(in_struct);
  }
  std::vector<std::string> emitted{sr.in_name};
  render_nested_defs(types, in_struct, emitted, out);
  out += "struct " + sr.in_name;
  render_struct_body(types, in_struct, {}, sr.in_name, out);
  if (in_count != 0) {
    out += '[';
    out += std::to_string(in_count);
    out += ']';
  }
  out += ";\nout:\n";
  for (const OutVar& o : sr.outs) {
    out += "struct " + o.name;
    TypeId st = o.type;
    std::uint64_t count = 0;
    if (types.kind(st) == layout::TypeKind::Array) {
      count = types.array_count(st);
      st = types.element(st);
    }
    render_struct_body(types, st, sr.links, o.name, out);
    if (count != 0) {
      out += '[';
      out += std::to_string(count);
      out += ']';
    }
    out += ";\n";
  }
  return out;
}

std::string write_rules_string(const RuleSet& set) {
  std::string out;
  for (const TransformRule& rule : set.rules()) {
    out += render_rule(set.types(), rule);
  }
  return out;
}

void write_rules(const RuleSet& set, std::ostream& out) {
  const std::string text = write_rules_string(set);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace tdt::core
