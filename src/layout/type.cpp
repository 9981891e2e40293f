#include "layout/type.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tdt::layout {

TypeTable::TypeTable() {
  char_ = add_primitive("char", 1);
  bool_ = add_primitive("bool", 1);
  short_ = add_primitive("short", 2);
  int_ = add_primitive("int", 4);
  long_ = add_primitive("long", 8);
  float_ = add_primitive("float", 4);
  double_ = add_primitive("double", 8);
}

TypeId TypeTable::add_primitive(std::string name, std::uint64_t size) {
  Node n;
  n.kind = TypeKind::Primitive;
  n.size = size;
  n.align = size;
  n.name = name;
  const auto id = static_cast<TypeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  primitive_index_.emplace(std::move(name), id);
  return id;
}

TypeId TypeTable::find_primitive(std::string_view name) const noexcept {
  if (auto it = primitive_index_.find(std::string(name));
      it != primitive_index_.end()) {
    return it->second;
  }
  return kInvalidType;
}

TypeId TypeTable::pointer_to(TypeId pointee) {
  internal_check(pointee < nodes_.size(), "pointer to unknown type");
  if (auto it = pointer_index_.find(pointee); it != pointer_index_.end()) {
    return it->second;
  }
  Node n;
  n.kind = TypeKind::Pointer;
  n.size = 8;
  n.align = 8;
  n.element = pointee;
  const auto id = static_cast<TypeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  pointer_index_.emplace(pointee, id);
  return id;
}

TypeId TypeTable::array_of(TypeId element, std::uint64_t count) {
  internal_check(element < nodes_.size(), "array of unknown type");
  if (count == 0) {
    throw_semantic_error("zero-length arrays are not supported");
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(element) << 32) ^ (count * 0x9e3779b97f4aULL);
  if (auto it = array_index_.find(key); it != array_index_.end()) {
    // Hash collision across (element, count) pairs is possible in theory;
    // verify before reusing.
    const Node& cand = nodes_[it->second];
    if (cand.element == element && cand.count == count) return it->second;
  }
  const std::uint64_t element_size = size_of(element);
  if (element_size != 0 && count > UINT64_MAX / element_size) {
    throw_semantic_error("size of " + render(element) + "[" +
                         std::to_string(count) + "] does not fit in 64 bits");
  }
  Node n;
  n.kind = TypeKind::Array;
  n.element = element;
  n.count = count;
  n.size = element_size * count;
  n.align = align_of(element);
  const auto id = static_cast<TypeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  array_index_.emplace(key, id);
  return id;
}

TypeId TypeTable::forward_struct(std::string name) {
  if (struct_index_.contains(name)) {
    throw_semantic_error("struct '" + name + "' is already declared");
  }
  Node n;
  n.kind = TypeKind::Struct;
  n.name = name;
  n.complete = false;
  const auto id = static_cast<TypeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  struct_index_.emplace(std::move(name), id);
  return id;
}

namespace {

[[noreturn]] void throw_struct_too_large(const std::string& name) {
  throw_semantic_error("struct '" + name + "' does not fit in 64 bits");
}

/// align_up for a struct layout, which throws rather than wrap.
std::uint64_t checked_align_up(std::uint64_t value, std::uint64_t alignment,
                               const std::string& struct_name) {
  const std::uint64_t rem = value % alignment;
  if (rem != 0 && alignment - rem > UINT64_MAX - value) {
    throw_struct_too_large(struct_name);
  }
  return align_up(value, alignment);
}

}  // namespace

void TypeTable::complete_struct(TypeId id, std::vector<PendingField> fields) {
  internal_check(id < nodes_.size(), "complete_struct on unknown id");
  if (nodes_[id].kind != TypeKind::Struct || nodes_[id].complete) {
    throw_semantic_error("complete_struct on a type that is not an "
                         "incomplete struct");
  }
  Node& n = nodes_[id];
  std::uint64_t offset = 0;
  std::uint64_t max_align = 1;
  for (PendingField& f : fields) {
    internal_check(f.type < nodes_.size(), "struct field with unknown type");
    if (f.type == id ||
        (kind(f.type) != TypeKind::Pointer && !is_complete(f.type))) {
      throw_semantic_error("field '" + f.name +
                           "' has incomplete type (only pointers to an "
                           "incomplete struct are allowed)");
    }
    for (const FieldInfo& existing : n.fields) {
      if (existing.name == f.name) {
        throw_semantic_error("duplicate field '" + f.name + "' in struct '" +
                             n.name + "'");
      }
    }
    const std::uint64_t a = align_of(f.type);
    max_align = std::max(max_align, a);
    offset = checked_align_up(offset, a, n.name);
    if (size_of(f.type) > UINT64_MAX - offset) throw_struct_too_large(n.name);
    n.fields.push_back(FieldInfo{std::move(f.name), f.type, offset});
    offset += size_of(f.type);
  }
  n.align = max_align;
  n.size = checked_align_up(std::max<std::uint64_t>(offset, 1), max_align,
                            n.name);
  n.complete = true;
}

bool TypeTable::is_complete(TypeId id) const { return node(id).complete; }

TypeId TypeTable::define_struct(std::string name,
                                std::vector<PendingField> fields) {
  const TypeId id = forward_struct(std::move(name));
  complete_struct(id, std::move(fields));
  return id;
}

TypeId TypeTable::find_struct(std::string_view name) const noexcept {
  if (auto it = struct_index_.find(std::string(name));
      it != struct_index_.end()) {
    return it->second;
  }
  return kInvalidType;
}

const TypeTable::Node& TypeTable::node(TypeId id) const {
  internal_check(id < nodes_.size(), "TypeId out of range");
  return nodes_[id];
}

TypeKind TypeTable::kind(TypeId id) const { return node(id).kind; }

std::uint64_t TypeTable::size_of(TypeId id) const { return node(id).size; }

std::uint64_t TypeTable::align_of(TypeId id) const { return node(id).align; }

TypeId TypeTable::element(TypeId id) const {
  const Node& n = node(id);
  internal_check(n.kind == TypeKind::Array || n.kind == TypeKind::Pointer,
                 "element() on non-array/pointer");
  return n.element;
}

std::uint64_t TypeTable::array_count(TypeId id) const {
  const Node& n = node(id);
  internal_check(n.kind == TypeKind::Array, "array_count() on non-array");
  return n.count;
}

std::span<const FieldInfo> TypeTable::fields(TypeId id) const {
  const Node& n = node(id);
  internal_check(n.kind == TypeKind::Struct, "fields() on non-struct");
  return n.fields;
}

const FieldInfo* TypeTable::find_field(TypeId id,
                                       std::string_view name) const {
  for (const FieldInfo& f : fields(id)) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::string_view TypeTable::name(TypeId id) const { return node(id).name; }

std::string TypeTable::render(TypeId id) const {
  const Node& n = node(id);
  switch (n.kind) {
    case TypeKind::Primitive:
    case TypeKind::Struct:
      return n.name;
    case TypeKind::Pointer:
      return render(n.element) + "*";
    case TypeKind::Array:
      return render(n.element) + "[" + std::to_string(n.count) + "]";
  }
  return "?";
}

std::uint64_t TypeTable::padding_bytes(TypeId id) const {
  const Node& n = node(id);
  switch (n.kind) {
    case TypeKind::Primitive:
    case TypeKind::Pointer:
      return 0;
    case TypeKind::Array:
      return n.count * padding_bytes(n.element);
    case TypeKind::Struct: {
      std::uint64_t payload = 0;
      for (const FieldInfo& f : n.fields) {
        payload += size_of(f.type) - padding_bytes(f.type);
      }
      return n.size - payload;
    }
  }
  return 0;
}

}  // namespace tdt::layout
