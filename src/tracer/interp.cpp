#include "tracer/interp.hpp"

#include "trace/stream.hpp"
#include "util/error.hpp"

namespace tdt::tracer {

using layout::TypeKind;
using trace::AccessKind;

Interpreter::Interpreter(layout::TypeTable& types, trace::TraceContext& ctx,
                         trace::TraceSink& sink, InterpOptions options)
    : types_(&types),
      ctx_(&ctx),
      sink_(&sink),
      options_(options),
      space_(options.address_space),
      symbols_(types, space_) {
  enabled_ = options_.start_enabled;
  batch_.reserve(trace::kViewBatch);
}

Symbol Interpreter::current_function() const {
  internal_check(!call_stack_.empty(), "no active function");
  return call_stack_.back();
}

void Interpreter::emit(AccessKind kind, std::uint64_t address,
                       std::uint32_t size, bool annotate) {
  if (!enabled_) return;
  if (emitted_ >= options_.max_records) {
    throw_semantic_error("trace record budget exhausted (" +
                         std::to_string(options_.max_records) + ")");
  }
  trace::TraceRecord& rec = batch_.emplace_back();
  rec.kind = kind;
  rec.address = address;
  rec.size = size;
  rec.function = current_function();
  rec.thread = 1;
  if (annotate && symbols_.resolve_address(address, where_)) {
    const memsim::VarInfo& var = *where_.var;
    rec.scope = var.scope(*types_);
    if (var.symbol.empty()) var.symbol = ctx_->intern(var.name);
    rec.var.base = var.symbol;
    for (const layout::OffsetStep& step : where_.steps) {
      rec.var.steps.push_back(
          step.is_field() ? trace::VarStep::make_field(field_symbol(step))
                          : trace::VarStep::make_index(step.index));
    }
    if (!var.global) {
      // Frame distance from the executing frame, as Gleipnir reports it:
      // 0 = own frame, 1 = caller's, ... (paper Listing 2: foo accessing
      // main's lcStrcArray shows frame 1).
      rec.frame =
          static_cast<std::uint16_t>(space_.current_frame() - var.frame);
    }
  }
  ++emitted_;
  if (batch_.size() >= trace::kViewBatch) flush_batch();
}

Symbol Interpreter::field_symbol(const layout::OffsetStep& step) {
  if (step.owner >= field_symbols_.size()) {
    field_symbols_.resize(step.owner + 1);
  }
  std::vector<Symbol>& names = field_symbols_[step.owner];
  if (names.empty()) names.resize(types_->fields(step.owner).size());
  Symbol& name = names[step.index];
  if (name.empty()) {
    name = ctx_->intern(types_->fields(step.owner)[step.index].name);
  }
  return name;
}

void Interpreter::flush_batch() {
  if (batch_.empty()) return;
  sink_->push_batch(batch_);
  batch_.clear();
}

Value Interpreter::memory_value(std::uint64_t address,
                                layout::TypeId type) const {
  if (const std::optional<Value> v = memory_.load(address)) return *v;
  // Uninitialized memory reads as zero of the leaf's kind.
  if (types_->kind(type) == TypeKind::Pointer) {
    return Value::from_ptr(0, types_->element(type));
  }
  if (type == types_->double_type() || type == types_->float_type()) {
    return Value::from_real(0);
  }
  return Value::from_int(0);
}

Interpreter::Location Interpreter::resolve(const LValue& place) {
  const memsim::VarInfo* var = symbols_.lookup(place.name);
  if (var == nullptr) {
    throw_semantic_error("use of undeclared variable '" + place.name + "'");
  }
  Location loc{var->base, var->type};
  for (const LValueStep& step : place.steps) {
    switch (step.kind) {
      case LValueStep::Kind::Field: {
        if (types_->kind(loc.type) != TypeKind::Struct) {
          throw_semantic_error("'." + step.field + "' applied to non-struct " +
                               types_->render(loc.type));
        }
        const layout::FieldInfo* f = types_->find_field(loc.type, step.field);
        if (f == nullptr) {
          throw_semantic_error("struct " + types_->render(loc.type) +
                               " has no field '" + step.field + "'");
        }
        loc.address += f->offset;
        loc.type = f->type;
        break;
      }
      case LValueStep::Kind::Index: {
        const Value idx = eval(*step.index);
        const std::int64_t i = idx.as_int();
        if (types_->kind(loc.type) == TypeKind::Array) {
          const layout::TypeId elem = types_->element(loc.type);
          loc.address += static_cast<std::uint64_t>(i) * types_->size_of(elem);
          loc.type = elem;
        } else if (types_->kind(loc.type) == TypeKind::Pointer) {
          // p[i]: load the pointer, then index off its value.
          const Value p = memory_value(loc.address, loc.type);
          emit(AccessKind::Load, loc.address, 8);
          const layout::TypeId elem = types_->element(loc.type);
          loc.address =
              p.addr + static_cast<std::uint64_t>(i) * types_->size_of(elem);
          loc.type = elem;
        } else {
          throw_semantic_error("index applied to scalar " +
                               types_->render(loc.type));
        }
        break;
      }
      case LValueStep::Kind::Arrow: {
        if (types_->kind(loc.type) != TypeKind::Pointer) {
          throw_semantic_error("'->' applied to non-pointer " +
                               types_->render(loc.type));
        }
        const Value p = memory_value(loc.address, loc.type);
        emit(AccessKind::Load, loc.address, 8);
        layout::TypeId target = types_->element(loc.type);
        if (types_->kind(target) != TypeKind::Struct) {
          throw_semantic_error("'->' into non-struct pointee " +
                               types_->render(target));
        }
        const layout::FieldInfo* f = types_->find_field(target, step.field);
        if (f == nullptr) {
          throw_semantic_error("struct " + types_->render(target) +
                               " has no field '" + step.field + "'");
        }
        loc.address = p.addr + f->offset;
        loc.type = f->type;
        break;
      }
    }
  }
  return loc;
}

Value Interpreter::load(const Location& loc) {
  switch (types_->kind(loc.type)) {
    case TypeKind::Array:
      // Array decays to a pointer to its first element; no memory access.
      return Value::from_ptr(loc.address, types_->element(loc.type));
    case TypeKind::Struct:
      throw_semantic_error("cannot read whole struct " +
                           types_->render(loc.type));
    case TypeKind::Primitive:
    case TypeKind::Pointer: {
      const Value v = memory_value(loc.address, loc.type);
      emit(AccessKind::Load, loc.address,
           static_cast<std::uint32_t>(types_->size_of(loc.type)));
      return v;
    }
  }
  return {};
}

void Interpreter::store(const Location& loc, const Value& v, bool compound) {
  const TypeKind k = types_->kind(loc.type);
  if (k == TypeKind::Array || k == TypeKind::Struct) {
    throw_semantic_error("cannot assign whole aggregate " +
                         types_->render(loc.type));
  }
  // Coerce the value to the destination's kind so later reads see the
  // type the location declares.
  Value stored = v;
  if (k == TypeKind::Pointer) {
    if (v.kind != Value::Kind::Ptr) {
      stored = Value::from_ptr(static_cast<std::uint64_t>(v.as_int()),
                               types_->element(loc.type));
    }
  } else if (loc.type == types_->double_type() ||
             loc.type == types_->float_type()) {
    stored = Value::from_real(v.as_real());
  } else {
    stored = Value::from_int(v.as_int());
  }
  if (compound) {
    const Value old = memory_value(loc.address, loc.type);
    if (stored.kind == Value::Kind::Real) {
      stored = Value::from_real(old.as_real() + v.as_real());
    } else if (stored.kind == Value::Kind::Ptr) {
      stored = Value::from_ptr(
          old.addr + static_cast<std::uint64_t>(v.as_int()) *
                         types_->size_of(stored.pointee),
          stored.pointee);
    } else {
      stored = Value::from_int(old.as_int() + v.as_int());
    }
  }
  memory_.store(loc.address, stored);
  emit(compound ? AccessKind::Modify : AccessKind::Store, loc.address,
       static_cast<std::uint32_t>(types_->size_of(loc.type)));
}

Value Interpreter::eval_binary(const Expr& expr) {
  const Value l = eval(*expr.lhs);
  const Value r = eval(*expr.rhs);
  using Op = Expr::Op;
  // Pointer arithmetic scales by pointee size, as in C.
  if (l.kind == Value::Kind::Ptr &&
      (expr.op == Op::Add || expr.op == Op::Sub)) {
    const std::uint64_t scale =
        l.pointee == layout::kInvalidType ? 1 : types_->size_of(l.pointee);
    const std::int64_t n = r.as_int();
    const std::uint64_t moved = static_cast<std::uint64_t>(n) * scale;
    return Value::from_ptr(
        expr.op == Op::Add ? l.addr + moved : l.addr - moved, l.pointee);
  }
  const bool real = l.kind == Value::Kind::Real || r.kind == Value::Kind::Real;
  switch (expr.op) {
    case Op::Add:
      return real ? Value::from_real(l.as_real() + r.as_real())
                  : Value::from_int(l.as_int() + r.as_int());
    case Op::Sub:
      return real ? Value::from_real(l.as_real() - r.as_real())
                  : Value::from_int(l.as_int() - r.as_int());
    case Op::Mul:
      return real ? Value::from_real(l.as_real() * r.as_real())
                  : Value::from_int(l.as_int() * r.as_int());
    case Op::Div:
      if (real) return Value::from_real(l.as_real() / r.as_real());
      if (r.as_int() == 0) throw_semantic_error("integer division by zero");
      return Value::from_int(l.as_int() / r.as_int());
    case Op::Mod:
      if (r.as_int() == 0) throw_semantic_error("integer modulo by zero");
      return Value::from_int(l.as_int() % r.as_int());
    case Op::Lt:
      return Value::from_int(real ? l.as_real() < r.as_real()
                                  : l.as_int() < r.as_int());
    case Op::Le:
      return Value::from_int(real ? l.as_real() <= r.as_real()
                                  : l.as_int() <= r.as_int());
    case Op::Gt:
      return Value::from_int(real ? l.as_real() > r.as_real()
                                  : l.as_int() > r.as_int());
    case Op::Ge:
      return Value::from_int(real ? l.as_real() >= r.as_real()
                                  : l.as_int() >= r.as_int());
    case Op::Eq:
      return Value::from_int(real ? l.as_real() == r.as_real()
                                  : l.as_int() == r.as_int());
    case Op::Ne:
      return Value::from_int(real ? l.as_real() != r.as_real()
                                  : l.as_int() != r.as_int());
    default:
      internal_check(false, "non-binary op in eval_binary");
      return {};
  }
}

Value Interpreter::eval(const Expr& expr) {
  using Op = Expr::Op;
  switch (expr.op) {
    case Op::IntLit:
      return Value::from_int(expr.int_value);
    case Op::RealLit:
      return Value::from_real(expr.real_value);
    case Op::Read:
      return load(resolve(expr.place));
    case Op::AddrOf: {
      const Location loc = resolve(expr.place);
      const layout::TypeId deref =
          types_->kind(loc.type) == TypeKind::Array ? types_->element(loc.type)
                                                    : loc.type;
      return Value::from_ptr(loc.address, deref);
    }
    case Op::Neg: {
      const Value v = eval(*expr.lhs);
      return v.kind == Value::Kind::Real ? Value::from_real(-v.as_real())
                                         : Value::from_int(-v.as_int());
    }
    case Op::CastInt:
      return Value::from_int(eval(*expr.lhs).as_int());
    case Op::CastReal:
      return Value::from_real(eval(*expr.lhs).as_real());
    default:
      return eval_binary(expr);
  }
}

void Interpreter::exec_block(const Stmt& stmt) {
  for (const StmtPtr& s : stmt.body) exec(*s);
}

void Interpreter::exec_call(const Stmt& stmt) {
  const FunctionDef* callee = program_->find_function(stmt.name);
  if (callee == nullptr) {
    throw_semantic_error("call to undefined function '" + stmt.name + "'");
  }
  if (callee->params.size() != stmt.args.size()) {
    throw_semantic_error("call to '" + stmt.name + "' passes " +
                         std::to_string(stmt.args.size()) + " args, expects " +
                         std::to_string(callee->params.size()));
  }
  // Evaluate arguments in the caller's context.
  std::vector<Value> args;
  args.reserve(stmt.args.size());
  for (const ExprPtr& a : stmt.args) args.push_back(eval(*a));

  if (options_.emit_call_overhead) {
    // Return-address push by the caller (un-annotated 8-byte store).
    const std::uint64_t ra = space_.alloc_stack(8, 8);
    emit(AccessKind::Store, ra, 8, /*annotate=*/false);
  }
  symbols_.push_scope();
  call_stack_.push_back(ctx_->intern(callee->name));
  if (options_.emit_call_overhead) {
    // Saved frame pointer, attributed to the callee.
    const std::uint64_t fp = space_.alloc_stack(8, 8);
    emit(AccessKind::Store, fp, 8, /*annotate=*/false);
  }
  // Bind parameters: declared as locals of the callee, stores traced.
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto& p = callee->params[i];
    const memsim::VarInfo& v = symbols_.declare_local(p.name, p.type);
    Location loc{v.base, v.type};
    store(loc, args[i], /*compound=*/false);
  }
  exec(*callee->body);
  call_stack_.pop_back();
  symbols_.pop_scope();
}

void Interpreter::exec(const Stmt& stmt) {
  using Kind = Stmt::Kind;
  switch (stmt.kind) {
    case Kind::Block:
      exec_block(stmt);
      return;
    case Kind::DeclLocal: {
      const memsim::VarInfo& v = symbols_.declare_local(stmt.name, stmt.type);
      if (stmt.value) {
        const Value init = eval(*stmt.value);
        store(Location{v.base, v.type}, init, /*compound=*/false);
      }
      return;
    }
    case Kind::Assign: {
      const Value v = eval(*stmt.value);
      const Location loc = resolve(stmt.place);
      store(loc, v, stmt.compound);
      return;
    }
    case Kind::For: {
      exec(*stmt.init);
      for (;;) {
        const Value c = eval(*stmt.cond);
        if (c.as_int() == 0) break;
        exec_block(stmt);
        exec(*stmt.step);
      }
      return;
    }
    case Kind::Call:
      exec_call(stmt);
      return;
    case Kind::StartInstr: {
      enabled_ = true;
      if (options_.emit_zzq_marker) {
        // The Valgrind client-request macro writes and reads an 8-byte
        // result slot; Gleipnir shows it as `_zzq_result` (Listing 2).
        const memsim::VarInfo* existing = symbols_.lookup("_zzq_result");
        const memsim::VarInfo& v =
            existing != nullptr && !existing->global
                ? *existing
                : symbols_.declare_local("_zzq_result", types_->long_type());
        emit(AccessKind::Store, v.base, 8);
        emit(AccessKind::Load, v.base, 8, /*annotate=*/false);
      }
      return;
    }
    case Kind::StopInstr:
      enabled_ = false;
      return;
    case Kind::HeapAlloc: {
      const Value n = eval(*stmt.count);
      const std::int64_t count = n.as_int();
      if (count <= 0) {
        throw_semantic_error("heap_alloc with non-positive element count");
      }
      // Register a pseudo-variable so accesses through the pointer get
      // named, the way Gleipnir names heap blocks by allocation site. Its
      // array type checks count x element size before the heap sees it.
      const layout::TypeId block_type =
          types_->array_of(stmt.type, static_cast<std::uint64_t>(count));
      const std::uint64_t addr = space_.heap_alloc(types_->size_of(block_type));
      symbols_.declare_at("heap#" + std::to_string(heap_serial_++), block_type,
                          addr, /*global=*/true);
      const Location loc = resolve(stmt.place);
      store(loc, Value::from_ptr(addr, stmt.type), /*compound=*/false);
      return;
    }
    case Kind::If: {
      const Value c = eval(*stmt.cond);
      if (c.as_int() != 0) {
        exec(*stmt.body.front());
      } else if (stmt.else_body) {
        exec(*stmt.else_body);
      }
      return;
    }
    case Kind::While: {
      for (;;) {
        const Value c = eval(*stmt.cond);
        if (c.as_int() == 0) break;
        exec(*stmt.body.front());
      }
      return;
    }
    case Kind::HeapFree: {
      const Location loc = resolve(stmt.place);
      const Value p = memory_value(loc.address, loc.type);
      emit(AccessKind::Load, loc.address, 8);
      space_.heap_free(p.addr);
      return;
    }
  }
}

void Interpreter::run(const Program& program) {
  program_ = &program;
  for (const Program::Global& g : program.globals) {
    symbols_.declare_global(g.name, g.type);
  }
  const FunctionDef* main_fn = program.find_function("main");
  if (main_fn == nullptr) {
    throw_semantic_error("program has no 'main' function");
  }
  symbols_.push_scope();
  call_stack_.push_back(ctx_->intern("main"));
  exec(*main_fn->body);
  call_stack_.pop_back();
  symbols_.pop_scope();
  flush_batch();
  sink_->on_end();
  program_ = nullptr;
}

std::vector<trace::TraceRecord> run_program(layout::TypeTable& types,
                                            trace::TraceContext& ctx,
                                            const Program& program,
                                            InterpOptions options) {
  trace::VectorSink sink;
  Interpreter interp(types, ctx, sink, options);
  interp.run(program);
  return sink.take();
}

}  // namespace tdt::tracer
