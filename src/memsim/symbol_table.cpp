#include "memsim/symbol_table.hpp"

#include "util/error.hpp"

namespace tdt::memsim {

using layout::TypeKind;

trace::VarScope VarInfo::scope(const layout::TypeTable& table) const {
  const bool aggregate = table.kind(type) == TypeKind::Array ||
                         table.kind(type) == TypeKind::Struct;
  if (global) {
    return aggregate ? trace::VarScope::GlobalStructure
                     : trace::VarScope::GlobalVariable;
  }
  return aggregate ? trace::VarScope::LocalStructure
                   : trace::VarScope::LocalVariable;
}

SymbolTable::SymbolTable(const layout::TypeTable& types, AddressSpace& space)
    : types_(&types), space_(&space) {
  scopes_.resize(2);  // [0] globals, [1] outermost locals
}

const VarInfo& SymbolTable::declare_global(std::string name,
                                           layout::TypeId type) {
  const std::uint64_t addr =
      space_->alloc_global(types_->size_of(type), types_->align_of(type));
  VarInfo v{std::move(name), type, addr, /*global=*/true, 0, {}};
  scopes_[0].push_back(std::move(v));
  return scopes_[0].back();
}

const VarInfo& SymbolTable::declare_local(std::string name,
                                          layout::TypeId type) {
  const std::uint64_t addr =
      space_->alloc_stack(types_->size_of(type), types_->align_of(type));
  VarInfo v{std::move(name), type, addr, /*global=*/false,
            space_->current_frame(), {}};
  scopes_.back().push_back(std::move(v));
  return scopes_.back().back();
}

const VarInfo& SymbolTable::declare_at(std::string name, layout::TypeId type,
                                       std::uint64_t address, bool global) {
  VarInfo v{std::move(name), type, address, global,
            global ? std::uint16_t{0} : space_->current_frame(), {}};
  auto& scope = global ? scopes_[0] : scopes_.back();
  scope.push_back(std::move(v));
  return scope.back();
}

void SymbolTable::push_scope() {
  space_->push_frame();
  scopes_.emplace_back();
}

void SymbolTable::pop_scope() {
  internal_check(scopes_.size() > 2, "pop_scope on outermost scope");
  scopes_.pop_back();
  space_->pop_frame();
}

const VarInfo* SymbolTable::lookup(std::string_view name) const {
  for (std::size_t s = scopes_.size(); s-- > 0;) {
    for (std::size_t i = scopes_[s].size(); i-- > 0;) {
      if (scopes_[s][i].name == name) return &scopes_[s][i];
    }
  }
  return nullptr;
}

bool SymbolTable::resolve_address(std::uint64_t address,
                                  AddressResolution& out) const {
  for (std::size_t s = scopes_.size(); s-- > 0;) {
    for (std::size_t i = scopes_[s].size(); i-- > 0;) {
      const VarInfo& v = scopes_[s][i];
      if (address >= v.base && address < v.base + types_->size_of(v.type)) {
        out.var = &v;
        return layout::offset_steps(*types_, v.type, address - v.base,
                                    out.steps, &out.offset_in_leaf);
      }
    }
  }
  return false;
}

std::vector<const VarInfo*> SymbolTable::live_variables() const {
  std::vector<const VarInfo*> out;
  for (const auto& scope : scopes_) {
    for (const VarInfo& v : scope) out.push_back(&v);
  }
  return out;
}

}  // namespace tdt::memsim
