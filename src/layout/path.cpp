#include "layout/path.hpp"

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace tdt::layout {

Resolved resolve_path(const TypeTable& table, TypeId root,
                      std::span<const PathStep> path) {
  Resolved r{0, root};
  for (const PathStep& step : path) {
    switch (table.kind(r.type)) {
      case TypeKind::Struct: {
        if (!step.is_field()) {
          throw_semantic_error("index selector applied to struct '" +
                               std::string(table.name(r.type)) + "'");
        }
        const FieldInfo* f = table.find_field(r.type, step.field);
        if (f == nullptr) {
          throw_semantic_error("struct '" + std::string(table.name(r.type)) +
                               "' has no field '" + step.field + "'");
        }
        r.offset += f->offset;
        r.type = f->type;
        break;
      }
      case TypeKind::Array: {
        if (!step.is_index()) {
          throw_semantic_error("field selector '" + step.field +
                               "' applied to array type " +
                               table.render(r.type));
        }
        if (step.index >= table.array_count(r.type)) {
          throw_semantic_error("index " + std::to_string(step.index) +
                               " out of range for " + table.render(r.type));
        }
        const TypeId elem = table.element(r.type);
        r.offset += step.index * table.size_of(elem);
        r.type = elem;
        break;
      }
      case TypeKind::Primitive:
      case TypeKind::Pointer:
        throw_semantic_error("selector applied to scalar type " +
                             table.render(r.type));
    }
  }
  return r;
}

bool offset_steps(const TypeTable& table, TypeId root, std::uint64_t offset,
                  OffsetPath& out, std::uint64_t* remainder) {
  out.clear();
  TypeId type = root;
  for (;;) {
    if (offset >= table.size_of(type)) return false;
    switch (table.kind(type)) {
      case TypeKind::Primitive:
      case TypeKind::Pointer:
        if (remainder != nullptr) *remainder = offset;
        return true;
      case TypeKind::Array: {
        const TypeId elem = table.element(type);
        const std::uint64_t esize = table.size_of(elem);
        const std::uint64_t idx = offset / esize;
        out.push_back(OffsetStep{kInvalidType, idx});
        offset -= idx * esize;
        type = elem;
        break;
      }
      case TypeKind::Struct: {
        const std::span<const FieldInfo> fields = table.fields(type);
        std::size_t at = 0;
        for (; at < fields.size(); ++at) {
          const FieldInfo& f = fields[at];
          if (f.offset <= offset &&
              offset < f.offset + table.size_of(f.type)) {
            break;
          }
        }
        if (at == fields.size()) return false;  // padding
        out.push_back(OffsetStep{type, at});
        offset -= fields[at].offset;
        type = fields[at].type;
        break;
      }
    }
  }
}

std::optional<Path> path_at_offset(const TypeTable& table, TypeId root,
                                   std::uint64_t offset,
                                   std::uint64_t* remainder) {
  OffsetPath steps;
  if (!offset_steps(table, root, offset, steps, remainder)) {
    return std::nullopt;
  }
  Path path;
  for (const OffsetStep& step : steps) {
    path.push_back(step.is_field()
                       ? PathStep::make_field(
                             table.fields(step.owner)[step.index].name)
                       : PathStep::make_index(step.index));
  }
  return path;
}

namespace {

void for_each_leaf_impl(
    const TypeTable& table, TypeId type, Path& prefix, std::uint64_t base,
    const std::function<void(const Path&, std::uint64_t, TypeId)>& fn) {
  switch (table.kind(type)) {
    case TypeKind::Primitive:
    case TypeKind::Pointer:
      fn(prefix, base, type);
      return;
    case TypeKind::Array: {
      const TypeId elem = table.element(type);
      const std::uint64_t esize = table.size_of(elem);
      for (std::uint64_t i = 0; i < table.array_count(type); ++i) {
        prefix.push_back(PathStep::make_index(i));
        for_each_leaf_impl(table, elem, prefix, base + i * esize, fn);
        prefix.pop_back();
      }
      return;
    }
    case TypeKind::Struct:
      for (const FieldInfo& f : table.fields(type)) {
        prefix.push_back(PathStep::make_field(f.name));
        for_each_leaf_impl(table, f.type, prefix, base + f.offset, fn);
        prefix.pop_back();
      }
      return;
  }
}

}  // namespace

void for_each_leaf(
    const TypeTable& table, TypeId root,
    const std::function<void(const Path&, std::uint64_t, TypeId)>& fn) {
  Path prefix;
  for_each_leaf_impl(table, root, prefix, 0, fn);
}

std::string format_path(std::span<const PathStep> path) {
  std::string out;
  for (const PathStep& step : path) {
    if (step.is_field()) {
      out += '.';
      out += step.field;
    } else {
      out += '[';
      out += std::to_string(step.index);
      out += ']';
    }
  }
  return out;
}

Path parse_path(std::string_view text) {
  Path path;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '.') {
      ++i;
      std::size_t start = i;
      if (i >= text.size() || !is_ident_start(text[i])) {
        throw_parse_error("expected field name after '.' in path '" +
                          std::string(text) + "'");
      }
      while (i < text.size() && is_ident_char(text[i])) ++i;
      path.push_back(
          PathStep::make_field(std::string(text.substr(start, i - start))));
    } else if (text[i] == '[') {
      ++i;
      std::size_t start = i;
      while (i < text.size() && text[i] != ']') ++i;
      if (i >= text.size()) {
        throw_parse_error("unterminated '[' in path '" + std::string(text) +
                          "'");
      }
      auto idx = parse_uint(text.substr(start, i - start));
      if (!idx) {
        throw_parse_error("bad array index in path '" + std::string(text) +
                          "'");
      }
      path.push_back(PathStep::make_index(*idx));
      ++i;  // skip ']'
    } else if (i == 0 && is_ident_start(text[i])) {
      // Tolerate a bare leading field name without the '.'.
      std::size_t start = i;
      while (i < text.size() && is_ident_char(text[i])) ++i;
      path.push_back(
          PathStep::make_field(std::string(text.substr(start, i - start))));
    } else {
      throw_parse_error("unexpected character '" + std::string(1, text[i]) +
                        "' in path '" + std::string(text) + "'");
    }
  }
  return path;
}

std::vector<std::string> leaf_field_names(const TypeTable& table,
                                          TypeId root) {
  std::vector<std::string> names;
  for_each_leaf(table, root,
                [&](const Path& path, std::uint64_t, TypeId) {
                  // Last field step names the leaf; indices are ignored so
                  // all elements of an array report one name.
                  for (std::size_t i = path.size(); i-- > 0;) {
                    if (path[i].is_field()) {
                      if (names.empty() || names.back() != path[i].field) {
                        names.push_back(path[i].field);
                      }
                      return;
                    }
                  }
                });
  return names;
}

}  // namespace tdt::layout
