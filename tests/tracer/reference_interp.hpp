// A deliberately naive reference for tracer::Interpreter, kept for the
// TracerDiff differential test. It is the interpreter as it was before
// annotation went string-free and memory went flat: every record resolves
// its address by a linear scan over the live variables, names the element
// with a path of std::string field names built by an offset walk, interns
// the variable name and every field name again, and every written scalar
// lives in a std::unordered_map node. It shares only the AST, Value,
// InterpOptions, the TypeTable and the AddressSpace with the real one.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "layout/path.hpp"
#include "layout/type.hpp"
#include "memsim/address_space.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "tracer/ast.hpp"
#include "tracer/interp.hpp"

namespace tdt::tracer::reference {

/// A declared variable (memsim::VarInfo as it was).
struct RefVar {
  std::string name;
  layout::TypeId type = layout::kInvalidType;
  std::uint64_t base = 0;
  bool global = false;
  std::uint16_t frame = 0;

  [[nodiscard]] trace::VarScope scope(const layout::TypeTable& table) const;
};

/// An address lookup: the variable plus a path of field names.
struct RefResolution {
  const RefVar* var = nullptr;
  layout::Path path;
  std::uint64_t offset_in_leaf = 0;
};

/// memsim::SymbolTable as it was: scopes of variables, resolved by name
/// or by address.
class RefSymbolTable {
 public:
  RefSymbolTable(const layout::TypeTable& types, memsim::AddressSpace& space);

  const RefVar& declare_global(std::string name, layout::TypeId type);
  const RefVar& declare_local(std::string name, layout::TypeId type);
  const RefVar& declare_at(std::string name, layout::TypeId type,
                           std::uint64_t address, bool global);
  void push_scope();
  void pop_scope();
  [[nodiscard]] const RefVar* lookup(std::string_view name) const;
  [[nodiscard]] std::optional<RefResolution> resolve_address(
      std::uint64_t address) const;

 private:
  const layout::TypeTable* types_;
  memsim::AddressSpace* space_;
  std::vector<std::deque<RefVar>> scopes_;  // scopes_[0] = globals
};

/// tracer::Interpreter as it was.
class RefInterpreter {
 public:
  RefInterpreter(layout::TypeTable& types, trace::TraceContext& ctx,
                 trace::TraceSink& sink, InterpOptions options = {});

  void run(const Program& program);

  [[nodiscard]] std::uint64_t records_emitted() const noexcept {
    return emitted_;
  }

 private:
  struct Location {
    std::uint64_t address = 0;
    layout::TypeId type = layout::kInvalidType;
  };

  void exec(const Stmt& stmt);
  void exec_block(const Stmt& stmt);
  void exec_call(const Stmt& stmt);
  Value eval(const Expr& expr);
  Value eval_binary(const Expr& expr);
  Location resolve(const LValue& place);
  void emit(trace::AccessKind kind, std::uint64_t address, std::uint32_t size,
            bool annotate = true);
  void flush_batch();
  Value load(const Location& loc);
  void store(const Location& loc, const Value& v, bool compound);
  Value memory_value(std::uint64_t address, layout::TypeId type) const;
  Symbol current_function() const;

  const Program* program_ = nullptr;
  layout::TypeTable* types_;
  trace::TraceContext* ctx_;
  trace::TraceSink* sink_;
  InterpOptions options_;

  memsim::AddressSpace space_;
  RefSymbolTable symbols_;
  std::unordered_map<std::uint64_t, Value> memory_;
  std::vector<Symbol> call_stack_;
  std::vector<trace::TraceRecord> batch_;
  bool enabled_ = false;
  std::uint64_t emitted_ = 0;
  std::uint64_t heap_serial_ = 0;
};

}  // namespace tdt::tracer::reference
