// The synthetic tracer: executes a mini-language Program and emits one
// Gleipnir-format TraceRecord per memory access into a TraceSink. This is
// the stand-in for running a compiled binary under Valgrind+Gleipnir:
// loop-counter loads, index arithmetic, call overhead stores and the
// GLEIPNIR_START/STOP instrumentation window all appear in the emitted
// trace exactly as in the paper's Listing 2 / Figure 5 snippets. Like
// Gleipnir it streams: records reach the sink through push_batch in
// batches of kViewBatch (trace/stream.hpp) while the program runs, so a
// writer sink checks its stream at the same boundaries as in the view
// DAG.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layout/type.hpp"
#include "memsim/address_space.hpp"
#include "memsim/symbol_table.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "tracer/ast.hpp"
#include "tracer/memory.hpp"

namespace tdt::tracer {

/// Interpreter options.
struct InterpOptions {
  /// Emit the unnamed 8-byte stores around a call (return address and
  /// saved frame pointer), visible as un-annotated lines in the paper's
  /// Listing 2.
  bool emit_call_overhead = true;
  /// Emit the `_zzq_result` store/load pair the Valgrind client-request
  /// macro produces at GLEIPNIR_START_INSTRUMENTATION.
  bool emit_zzq_marker = true;
  /// Start with instrumentation already enabled (kernels without explicit
  /// markers trace everything).
  bool start_enabled = false;
  /// Abort after this many emitted records (runaway-loop guard).
  std::uint64_t max_records = 1ULL << 32;
  /// Address-space layout. Multi-threaded studies give each thread's
  /// interpreter a distinct stack_base so per-thread locals don't falsely
  /// collide, while globals stay shared (same global_base).
  memsim::AddressSpaceConfig address_space;
};

/// Executes programs, emitting trace records.
class Interpreter {
 public:
  /// `types` is mutable because heap allocations mint fresh array types.
  Interpreter(layout::TypeTable& types, trace::TraceContext& ctx,
              trace::TraceSink& sink, InterpOptions options = {});

  /// Runs `program` from its `main` function. Throws Error{Semantic} on
  /// undeclared variables, bad selectors, or a missing main.
  void run(const Program& program);

  /// Records emitted so far.
  [[nodiscard]] std::uint64_t records_emitted() const noexcept {
    return emitted_;
  }

  /// The address space (inspectable after run; e.g. heap live bytes).
  [[nodiscard]] const memsim::AddressSpace& space() const noexcept {
    return space_;
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

  /// Resolves an l-value to an address+type, emitting loads for index
  /// expressions and pointer dereferences along the way.
  Location resolve(const LValue& place);

  /// Emits an access record for `address`, naming it via the symbol table.
  void emit(trace::AccessKind kind, std::uint64_t address, std::uint32_t size,
            bool annotate = true);

  /// The interned name of a field step, interned on first use.
  Symbol field_symbol(const layout::OffsetStep& step);

  /// Hands the pending batch to the sink.
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
  memsim::SymbolTable symbols_;
  memsim::AddressResolution where_;  // emit's lookup, reused per record
  // Field names by struct TypeId and field position; an empty Symbol is
  // a name not interned yet.
  std::vector<std::vector<Symbol>> field_symbols_;
  Memory memory_;
  std::vector<Symbol> call_stack_;
  std::vector<trace::TraceRecord> batch_;  // emitted, not yet pushed
  bool enabled_ = false;
  std::uint64_t emitted_ = 0;
  std::uint64_t heap_serial_ = 0;
};

/// Convenience: run `program` and return the emitted records.
std::vector<trace::TraceRecord> run_program(layout::TypeTable& types,
                                            trace::TraceContext& ctx,
                                            const Program& program,
                                            InterpOptions options = {});

}  // namespace tdt::tracer
