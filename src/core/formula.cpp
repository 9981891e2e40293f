#include "core/formula.hpp"

#include "util/error.hpp"

namespace tdt::core {

Formula Formula::constant(std::int64_t v) {
  Formula f;
  f.op_ = Op::Const;
  f.value_ = v;
  return f;
}

Formula Formula::variable(std::string name) {
  Formula f;
  f.op_ = Op::Var;
  f.name_ = std::move(name);
  return f;
}

Formula Formula::binary(Op op, Formula lhs, Formula rhs) {
  Formula f;
  f.op_ = op;
  f.lhs_ = std::make_unique<Formula>(std::move(lhs));
  f.rhs_ = std::make_unique<Formula>(std::move(rhs));
  return f;
}

Formula Formula::negate(Formula operand) {
  Formula f;
  f.op_ = Op::Neg;
  f.lhs_ = std::make_unique<Formula>(std::move(operand));
  return f;
}

Formula::Formula(const Formula& other)
    : op_(other.op_), value_(other.value_), name_(other.name_) {
  if (other.lhs_) lhs_ = std::make_unique<Formula>(*other.lhs_);
  if (other.rhs_) rhs_ = std::make_unique<Formula>(*other.rhs_);
}

Formula& Formula::operator=(const Formula& other) {
  if (this != &other) {
    Formula copy(other);
    *this = std::move(copy);
  }
  return *this;
}

std::int64_t Formula::eval(std::int64_t value) const {
  switch (op_) {
    case Op::Const: return value_;
    case Op::Var: return value;
    case Op::Neg: return -lhs_->eval(value);
    case Op::Add: return lhs_->eval(value) + rhs_->eval(value);
    case Op::Sub: return lhs_->eval(value) - rhs_->eval(value);
    case Op::Mul: return lhs_->eval(value) * rhs_->eval(value);
    case Op::Div: {
      const std::int64_t d = rhs_->eval(value);
      if (d == 0) throw_semantic_error("formula division by zero");
      return lhs_->eval(value) / d;
    }
    case Op::Mod: {
      const std::int64_t d = rhs_->eval(value);
      if (d == 0) throw_semantic_error("formula modulo by zero");
      return lhs_->eval(value) % d;
    }
  }
  return 0;
}

std::string Formula::render() const {
  const auto parenthesized = [&](const char* open, char op) {
    std::string out = open;
    out += lhs_->render();
    if (op != 0) {
      out += op;
      out += rhs_->render();
    }
    out += ')';
    return out;
  };
  switch (op_) {
    case Op::Const: return std::to_string(value_);
    case Op::Var: return name_;
    case Op::Neg: return parenthesized("-(", 0);
    case Op::Add: return parenthesized("(", '+');
    case Op::Sub: return parenthesized("(", '-');
    case Op::Mul: return parenthesized("(", '*');
    case Op::Div: return parenthesized("(", '/');
    case Op::Mod: return parenthesized("(", '%');
  }
  return "?";
}

bool Formula::has_variable() const {
  if (op_ == Op::Var) return true;
  if (lhs_ && lhs_->has_variable()) return true;
  if (rhs_ && rhs_->has_variable()) return true;
  return false;
}

namespace {

Formula parse_expr(Lexer& lex);

Formula parse_primary(Lexer& lex) {
  const Token& t = lex.peek();
  if (t.kind == TokKind::Number) {
    return Formula::constant(static_cast<std::int64_t>(lex.next().number()));
  }
  if (t.kind == TokKind::Ident) {
    return Formula::variable(std::string(lex.next().text));
  }
  if (t.is("(")) {
    lex.next();
    Formula inner = parse_expr(lex);
    lex.expect(")");
    return inner;
  }
  throw_parse_error("expected number, variable or '(' in formula, got '" +
                        std::string(t.kind == TokKind::End ? "<end>" : t.text) +
                        "'",
                    t.loc);
}

Formula parse_unary(Lexer& lex) {
  if (lex.accept("-")) {
    return Formula::negate(parse_unary(lex));
  }
  return parse_primary(lex);
}

Formula parse_term(Lexer& lex) {
  Formula out = parse_unary(lex);
  for (;;) {
    if (lex.accept("*")) {
      out = Formula::binary(Formula::Op::Mul, std::move(out),
                            parse_unary(lex));
    } else if (lex.accept("/")) {
      out = Formula::binary(Formula::Op::Div, std::move(out),
                            parse_unary(lex));
    } else if (lex.accept("%")) {
      out = Formula::binary(Formula::Op::Mod, std::move(out),
                            parse_unary(lex));
    } else {
      return out;
    }
  }
}

Formula parse_expr(Lexer& lex) {
  Formula out = parse_term(lex);
  for (;;) {
    if (lex.accept("+")) {
      out = Formula::binary(Formula::Op::Add, std::move(out), parse_term(lex));
    } else if (lex.accept("-")) {
      out = Formula::binary(Formula::Op::Sub, std::move(out), parse_term(lex));
    } else {
      return out;
    }
  }
}

}  // namespace

Formula parse_formula(Lexer& lex) { return parse_expr(lex); }

Formula parse_formula(std::string_view text) {
  Lexer lex(text);
  Formula f = parse_expr(lex);
  if (!lex.at_end()) {
    throw_parse_error("trailing tokens after formula", lex.loc());
  }
  return f;
}

}  // namespace tdt::core
