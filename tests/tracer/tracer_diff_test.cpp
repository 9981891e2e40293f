// TracerDiff: tracer::Interpreter against the naive reference in
// reference_interp.{hpp,cpp} — a string path per record resolved by an
// offset walk, names interned again on every record, and every written
// scalar in a hash-map node. Each case builds its program twice, into two
// fresh TypeTables, runs one copy through each interpreter and compares:
//
//   * every record, field by field (kind, scope, frame, thread, size,
//     address, function, and the variable's base and steps);
//   * the string pool, name by name in id order, so symbol ids (and with
//     them TDTB string ids) are the same;
//   * records_emitted();
//   * the text of the error, when the run throws one.
//
// Inputs: every built-in kernel at a small LEN, every kernels/*.c, a
// fixed corpus of programs that end in an error, and random C-subset
// programs through parse_kernel. The random programs cover nested
// structs and arrays with padding, char and short fields at odd offsets,
// reads of uninitialised memory and of struct padding, locals of a
// returned call read again at reused stack addresses, malloc/free/malloc
// of a different size (overlapping heap#N pseudo-variables), pointer
// arithmetic and `+=`, and values above 2^31 stored in an int.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "reference_interp.hpp"
#include "tracer/interp.hpp"
#include "tracer/kernels.hpp"
#include "tracer/parser.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#ifndef TDT_KERNELS_DIR
#error "TDT_KERNELS_DIR must be defined by the build"
#endif

namespace tdt::tracer {
namespace {

using MakeProgram = std::function<Program(layout::TypeTable&)>;

/// What one interpreter produced for one program.
struct RunResult {
  layout::TypeTable types;
  trace::TraceContext ctx;
  std::vector<trace::TraceRecord> records;
  std::uint64_t emitted = 0;
  std::optional<std::string> error;
};

template <typename Interp>
void run_with(const MakeProgram& make, const InterpOptions& options,
              RunResult& out) {
  const Program program = make(out.types);
  trace::VectorSink sink;
  Interp interp(out.types, out.ctx, sink, options);
  try {
    interp.run(program);
  } catch (const Error& e) {
    out.error = e.what();
  }
  out.emitted = interp.records_emitted();
  out.records = sink.take();
}

/// Running totals over the cases of one test, for its coverage checks.
struct Tally {
  std::size_t programs = 0;
  std::size_t errors = 0;
  std::uint64_t records = 0;
};

/// Runs both interpreters on `make` and reports every difference. Stops
/// at the first differing record: later ones follow from it.
void expect_same(const std::string& label, const MakeProgram& make,
                 const InterpOptions& options = {}, Tally* tally = nullptr) {
  SCOPED_TRACE(label);
  RunResult got;
  RunResult want;
  run_with<Interpreter>(make, options, got);
  run_with<reference::RefInterpreter>(make, options, want);

  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.emitted, want.emitted);
  EXPECT_EQ(got.records.size(), want.records.size());
  const std::size_t n = std::min(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (got.records[i] == want.records[i]) continue;
    ADD_FAILURE() << "record " << i << " differs:\n  got  "
                  << got.ctx.format_record(got.records[i]) << "\n  want "
                  << want.ctx.format_record(want.records[i]);
    break;
  }
  const StringPool& gp = got.ctx.pool();
  const StringPool& wp = want.ctx.pool();
  EXPECT_EQ(gp.size(), wp.size());
  for (std::uint32_t id = 0; id < std::min(gp.size(), wp.size()); ++id) {
    if (gp.view(Symbol{id}) == wp.view(Symbol{id})) continue;
    ADD_FAILURE() << "string id " << id << ": got '" << gp.view(Symbol{id})
                  << "', want '" << wp.view(Symbol{id}) << "'";
    break;
  }
  if (tally != nullptr) {
    ++tally->programs;
    tally->errors += want.error.has_value() ? 1 : 0;
    tally->records += want.records.size();
  }
}

MakeProgram from_source(std::string source) {
  return [source = std::move(source)](layout::TypeTable& types) {
    return parse_kernel(source, types);
  };
}

// --- built-in kernels and kernel sources -------------------------------

TEST(TracerDiff, BuiltInKernels) {
  const std::vector<std::pair<std::string, MakeProgram>> cases = {
      {"listing1", [](auto& t) { return make_listing1(t); }},
      {"t1_soa", [](auto& t) { return make_t1_soa(t, 300); }},
      {"t1_aos", [](auto& t) { return make_t1_aos(t, 300); }},
      {"t2_inline", [](auto& t) { return make_t2_inline(t, 200); }},
      {"t2_outlined", [](auto& t) { return make_t2_outlined(t, 200); }},
      {"t3_contiguous", [](auto& t) { return make_t3_contiguous(t, 300); }},
      {"matmul_ijk", [](auto& t) { return make_matmul(t, 6, false); }},
      {"matmul_ikj", [](auto& t) { return make_matmul(t, 6, true); }},
      {"row_major", [](auto& t) { return make_row_col(t, 9, 7, false); }},
      {"col_major", [](auto& t) { return make_row_col(t, 9, 7, true); }},
      {"linked_list", [](auto& t) { return make_linked_list(t, 150, false); }},
      {"linked_list --shuffle",
       [](auto& t) { return make_linked_list(t, 150, true, 42); }},
      {"linked_list --shuffle --seed 7",
       [](auto& t) { return make_linked_list(t, 97, true, 7); }},
  };
  for (const auto& [name, make] : cases) expect_same(name, make);
  for (const std::int64_t sets : {1, 2, 4, 16, 64}) {
    for (const std::int64_t line : {16, 32, 64}) {
      expect_same("t3_strided --sets " + std::to_string(sets) +
                      " --cache-line " + std::to_string(line),
                  [sets, line](auto& t) {
                    return make_t3_strided(t, 200, sets, line);
                  });
    }
  }
}

TEST(TracerDiff, InterpOptionsVariants) {
  InterpOptions quiet;
  quiet.emit_call_overhead = false;
  quiet.emit_zzq_marker = false;
  InterpOptions always;
  always.start_enabled = true;
  InterpOptions moved;
  moved.address_space.stack_base = 0x7ff100000ULL;
  moved.address_space.global_base = 0x000700001ULL;
  for (const InterpOptions& opts : {quiet, always, moved}) {
    expect_same("listing1", [](auto& t) { return make_listing1(t); }, opts);
    expect_same("t2_outlined", [](auto& t) { return make_t2_outlined(t, 50); },
                opts);
    expect_same("linked_list",
                [](auto& t) { return make_linked_list(t, 40, true, 3); },
                opts);
  }
}

TEST(TracerDiff, KernelSources) {
  std::vector<std::filesystem::path> sources;
  for (const auto& entry :
       std::filesystem::directory_iterator(TDT_KERNELS_DIR)) {
    if (entry.path().extension() == ".c") sources.push_back(entry.path());
  }
  std::sort(sources.begin(), sources.end());
  ASSERT_GE(sources.size(), 10u);
  for (const auto& path : sources) {
    expect_same(path.filename().string(), [path](layout::TypeTable& types) {
      return parse_kernel_file(path.string(), types);
    });
  }
}

// --- errors ------------------------------------------------------------

TEST(TracerDiff, ErrorsMatchInTextAndRecordCount) {
  const char* const sources[] = {
      // integer division by zero after some records
      "int g; int z; int main(void) { GLEIPNIR_START_INSTRUMENTATION; "
      "g = 5; g = g / z; return 0; }",
      "int g; int z; int main(void) { GLEIPNIR_START_INSTRUMENTATION; "
      "g = 5; g = g % z; return 0; }",
      // free of an address malloc never returned, and a double free
      "int main(void) { int* p; GLEIPNIR_START_INSTRUMENTATION; "
      "p = malloc(4 * sizeof(int)); p = p + 1; free(p); return 0; }",
      "int main(void) { int* p; GLEIPNIR_START_INSTRUMENTATION; "
      "p = malloc(4 * sizeof(int)); free(p); free(p); return 0; }",
      // whole-struct read and write
      "struct S { int a; char b; }; struct S s; struct S t; int g;\n"
      "int main(void) { GLEIPNIR_START_INSTRUMENTATION; g = 1; s = t; "
      "return 0; }",
      "struct S { int a; char b; }; struct S s; int g;\n"
      "int main(void) { GLEIPNIR_START_INSTRUMENTATION; g = 1; g = s; "
      "return 0; }",
      // undeclared variable, bad selectors, bad calls
      "int main(void) { int a; GLEIPNIR_START_INSTRUMENTATION; a = 1; "
      "b = a; return 0; }",
      "struct S { int a; }; struct S s; int main(void) { "
      "GLEIPNIR_START_INSTRUMENTATION; s.a = 1; s.q = 2; return 0; }",
      "int x; int main(void) { GLEIPNIR_START_INSTRUMENTATION; x = 1; "
      "x[2] = 3; return 0; }",
      "int x; int main(void) { GLEIPNIR_START_INSTRUMENTATION; x = 1; "
      "x.f = 3; return 0; }",
      "int x; int main(void) { GLEIPNIR_START_INSTRUMENTATION; x = 1; "
      "x->f = 3; return 0; }",
      "int* p; int main(void) { GLEIPNIR_START_INSTRUMENTATION; "
      "p->f = 3; return 0; }",
      "void f(int a) { a = 2; } int main(void) { "
      "GLEIPNIR_START_INSTRUMENTATION; f(1, 2); return 0; }",
      "int main(void) { GLEIPNIR_START_INSTRUMENTATION; g(); return 0; }",
      // a non-positive malloc count
      "int n; int main(void) { int* p; GLEIPNIR_START_INSTRUMENTATION; "
      "n = 0; p = malloc(n * sizeof(int)); return 0; }",
      // the simulated stack overflows, in a call and in main
      "void g(int d) { char b2[9000000]; b2[d] = 2; }\n"
      "void f(int d) { char big[9000000]; big[d] = 1; g(d); }\n"
      "int main(void) { int i; GLEIPNIR_START_INSTRUMENTATION; "
      "for (i = 0; i < 2; i++) f(i); return 0; }",
      "int main(void) { long a[1000000]; long b[1000000]; long c[1000000];"
      " GLEIPNIR_START_INSTRUMENTATION; a[0] = 1; return 0; }",
  };
  for (const char* source : sources) expect_same(source, from_source(source));

  InterpOptions budget;
  budget.max_records = 37;
  expect_same("t1_soa under a record budget",
              [](auto& t) { return make_t1_soa(t, 100); }, budget);
  expect_same("linked_list under a record budget",
              [](auto& t) { return make_linked_list(t, 64, true, 9); },
              budget);
}

// --- random programs ---------------------------------------------------

/// Random C-subset kernel sources for parse_kernel. Every program ends:
/// there is no recursion, loops run a literal count, and a store that
/// can land anywhere (through a pointer) only runs at the top level of
/// main, outside every loop, so no loop counter can be overwritten while
/// its loop runs. Stored values stay far from int64 overflow: products
/// take one operand modulo 1000, divisors are non-zero literals, and a
/// stored expression is reduced modulo 2^33.
class KernelGen {
 public:
  explicit KernelGen(std::uint64_t seed) : rng_(seed) {}

  std::string make() {
    std::ostringstream src;
    make_structs(src);
    make_globals(src);
    const int helpers = static_cast<int>(pick(4));
    for (int f = 0; f < helpers; ++f) make_function(src, f);
    make_main(src, helpers);
    return src.str();
  }

 private:
  enum class K : std::uint8_t { Char, Short, Int, Long, Double, Ptr, Array,
                                Struct };
  struct Ty {
    K kind;
    int ref = -1;  // Ptr: pointee type; Array: element type; Struct: index
    int count = 0;
  };
  struct Var {
    std::string name;
    int type;
  };
  struct StructDef {
    std::string name;
    std::vector<Var> fields;
  };

  std::uint64_t pick(std::uint64_t n) { return rng_.next_below(n); }
  bool chance(int percent) {
    return pick(100) < static_cast<unsigned>(percent);
  }

  int add_type(Ty t) {
    types_.push_back(t);
    return static_cast<int>(types_.size()) - 1;
  }
  int prim(K k) { return add_type({k}); }
  bool scalar(int t) const { return types_[t].kind <= K::Ptr; }

  int random_prim() {
    static constexpr K kPrims[] = {K::Char, K::Short, K::Int, K::Long,
                                   K::Double, K::Char, K::Int};
    return prim(kPrims[pick(std::size(kPrims))]);
  }

  /// A field or variable type: scalars, pointers to scalars or earlier
  /// structs, earlier structs, and arrays (up to two dimensions) of them.
  int random_type(int depth) {
    const std::uint64_t r = pick(10);
    if (r < 4 || depth > 1) return random_prim();
    if (r < 5) {
      return add_type({K::Ptr, structs_.empty() || chance(50)
                                   ? random_prim()
                                   : struct_type(pick(structs_.size()))});
    }
    if (r < 7 && !structs_.empty()) {
      return struct_type(pick(structs_.size()));
    }
    return add_type(
        {K::Array, random_type(depth + 1), static_cast<int>(1 + pick(4))});
  }

  int struct_type(std::uint64_t index) {
    return add_type({K::Struct, static_cast<int>(index)});
  }

  std::string base_name(int t) const {
    switch (types_[t].kind) {
      case K::Char: return "char";
      case K::Short: return "short";
      case K::Int: return "int";
      case K::Long: return "long";
      case K::Double: return "double";
      case K::Ptr: return base_name(types_[t].ref) + "*";
      case K::Array: return base_name(types_[t].ref);
      case K::Struct: return "struct " + structs_[types_[t].ref].name;
    }
    return "int";
  }

  std::string declare(int t, const std::string& name) const {
    std::string extents;
    int e = t;
    while (types_[e].kind == K::Array) {
      extents += "[" + std::to_string(types_[e].count) + "]";
      e = types_[e].ref;
    }
    return base_name(e) + " " + name + extents;
  }

  void make_structs(std::ostringstream& src) {
    static const char* const kFieldNames[] = {"a", "b", "c", "d", "mX",
                                              "mY", "next", "pad", "v"};
    const int n = static_cast<int>(1 + pick(4));
    for (int s = 0; s < n; ++s) {
      StructDef def{"S" + std::to_string(s), {}};
      std::vector<std::string> names(std::begin(kFieldNames),
                                     std::end(kFieldNames));
      const int fields = static_cast<int>(1 + pick(4));
      for (int f = 0; f < fields; ++f) {
        const std::size_t at = pick(names.size());
        // A leading char puts what follows at an odd offset or behind
        // padding.
        const int type = f == 0 && chance(60) ? prim(K::Char) : random_type(0);
        def.fields.push_back({names[at], type});
        names.erase(names.begin() + static_cast<std::ptrdiff_t>(at));
      }
      src << "struct " << def.name << " {";
      for (const Var& f : def.fields) {
        src << " " << declare(f.type, f.name) << ";";
      }
      src << " };\n";
      structs_.push_back(std::move(def));
    }
  }

  void make_globals(std::ostringstream& src) {
    globals_.clear();
    const int n = static_cast<int>(2 + pick(4));
    for (int g = 0; g < n; ++g) {
      Var v{"g" + std::to_string(g), random_type(0)};
      src << declare(v.type, v.name) << ";\n";
      globals_.push_back(v);
    }
    // A big-value int and a pointer every program can use.
    globals_.push_back({"gbig", prim(K::Int)});
    globals_.push_back({"gp", add_type({K::Ptr, prim(K::Int)})});
    src << "int gbig;\nint* gp;\n";
  }

  // --- places and expressions ------------------------------------------

  /// Literal index in range, or an expression wrapped into [0, count).
  std::string index_in(int count, int budget) {
    if (chance(40)) return std::to_string(pick(static_cast<unsigned>(count)));
    const std::string n = std::to_string(count);
    return "((" + expr(budget) + ") % " + n + " + " + n + ") % " + n;
  }

  /// A scalar place inside `var`. `through_ptr` is set when the place is
  /// reached through a pointer (it may then land anywhere).
  std::string place_in(const Var& var, int budget, bool& through_ptr,
                       int& leaf) {
    std::string out = var.name;
    int t = var.type;
    for (int hops = 0; hops < 6; ++hops) {
      const Ty ty = types_[t];
      if (ty.kind == K::Array) {
        out += "[" + index_in(ty.count, budget) + "]";
        t = ty.ref;
      } else if (ty.kind == K::Struct) {
        const auto& fields = structs_[ty.ref].fields;
        const Var& f = fields[pick(fields.size())];
        out += "." + f.name;
        t = f.type;
      } else if (ty.kind == K::Ptr && chance(45)) {
        through_ptr = true;
        const Ty target = types_[ty.ref];
        if (target.kind == K::Struct && chance(60)) {
          const auto& fields = structs_[target.ref].fields;
          const Var& f = fields[pick(fields.size())];
          out += "->" + f.name;
          t = f.type;
        } else {
          // Through a char* the index walks the bytes of whatever the
          // pointer holds, padding included.
          const unsigned span = target.kind == K::Char ? 12 : 3;
          out += "[" + std::to_string(pick(span)) + "]";
          t = ty.ref;
        }
      } else {
        break;
      }
    }
    leaf = t;
    if (!scalar(t)) {  // ran out of hops inside an aggregate
      through_ptr = true;
      leaf = -1;
    }
    return out;
  }

  /// A read of some scalar, anywhere reachable.
  std::string read(int budget) {
    if (!counters_.empty() && chance(20)) {
      return counters_[pick(counters_.size())];
    }
    const Var& v = visible_[pick(visible_.size())];
    bool through = false;
    int leaf = 0;
    std::string p = place_in(v, budget - 1, through, leaf);
    if (leaf < 0) return std::to_string(pick(9));
    return p;
  }

  std::string literal() {
    static const char* const kBig[] = {"2147483647", "2147483648",
                                       "3000000000", "4294967301",
                                       "6000000007"};
    if (chance(10)) return kBig[pick(std::size(kBig))];
    if (chance(10)) return std::to_string(pick(40)) + ".5";
    return std::to_string(pick(20));
  }

  std::string expr(int budget) {
    if (budget <= 0) return chance(50) ? literal() : read(0);
    switch (pick(11)) {
      case 0: case 1: return literal();
      case 2: case 3: case 4: return read(budget - 1);
      case 5: return "(" + expr(budget - 1) + " + " + expr(budget - 1) + ")";
      case 6: return "(" + expr(budget - 1) + " - " + expr(budget - 1) + ")";
      case 7:
        return "((" + expr(budget - 1) + ") % 1000 * " +
               std::to_string(1 + pick(7)) + ")";
      case 8:
        return "(" + expr(budget - 1) + (chance(50) ? " / " : " % ") +
               std::to_string(1 + pick(9)) + ")";
      case 9: {
        static const char* const kCmp[] = {" < ", " <= ", " > ", " >= ",
                                           " == ", " != "};
        return "(" + expr(budget - 1) + kCmp[pick(6)] + expr(budget - 1) +
               ")";
      }
      default:
        return chance(50) ? "(int) " + read(budget - 1)
                          : "-" + read(budget - 1);
    }
  }

  /// A value for a store: small or big literal, or a reduced expression.
  std::string value(int budget) {
    if (chance(20)) return literal();
    return "(" + expr(budget) + ") % 8589934592";
  }

  /// A pointer value: an address of some place, a decayed array, or a
  /// pointer moved by a few elements.
  std::string pointer_value() {
    const Var& v = visible_[pick(visible_.size())];
    if (types_[v.type].kind == K::Array && chance(40)) return v.name;
    if (types_[v.type].kind == K::Ptr && chance(50)) {
      return v.name + (chance(50) ? " + " : " - ") + std::to_string(pick(3));
    }
    bool through = false;
    int leaf = 0;
    const std::string p = place_in(v, 1, through, leaf);
    return leaf < 0 ? v.name : "&" + p;
  }

  // --- statements -------------------------------------------------------

  void line(std::ostringstream& out, int indent, const std::string& text) {
    out << std::string(static_cast<std::size_t>(indent) * 2, ' ') << text
        << "\n";
  }

  /// One store. Stores through a pointer run only where no loop counter
  /// can be live (top level of main); elsewhere a direct place is used.
  void store(std::ostringstream& out, int indent, bool wild_ok) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Var& v = visible_[pick(visible_.size())];
      bool through = false;
      int leaf = 0;
      const std::string place = place_in(v, 2, through, leaf);
      if (leaf < 0 || (through && !wild_ok)) continue;
      if (types_[leaf].kind == K::Ptr && chance(70)) {
        if (chance(30)) {
          line(out, indent, place + " += " + std::to_string(pick(4)) + ";");
        } else {
          line(out, indent, place + " = " + pointer_value() + ";");
        }
      } else if (chance(15)) {
        line(out, indent, place + "++;");
      } else if (chance(20)) {
        line(out, indent, place + " += " + value(2) + ";");
      } else {
        line(out, indent, place + " = " + value(3) + ";");
      }
      return;
    }
  }

  /// A nested block: a local declared inside it is not visible after it,
  /// since it may never have been declared (a branch not taken).
  void block(std::ostringstream& out, int indent, int count, int callable) {
    const std::size_t outer = visible_.size();
    statements(out, indent, count, false, callable);
    visible_.resize(outer);
  }

  void statements(std::ostringstream& out, int indent, int count, bool top,
                  int callable) {
    for (int s = 0; s < count; ++s) {
      const std::uint64_t r = pick(100);
      if (r < 45) {
        store(out, indent, top && in_main_);
      } else if (r < 52 && counters_.size() < 2) {
        const std::string c = "i" + std::to_string(counters_.size());
        line(out, indent, "for (" + c + " = 0; " + c + " < " +
                              std::to_string(1 + pick(5)) + "; " + c +
                              "++) {");
        counters_.push_back(c);
        block(out, indent + 1, static_cast<int>(1 + pick(4)), callable);
        counters_.pop_back();
        line(out, indent, "}");
      } else if (r < 56 && counters_.size() < 2) {
        const std::string w = "w" + std::to_string(counters_.size());
        line(out, indent, w + " = 0;");
        line(out, indent,
             "while (" + w + " < " + std::to_string(1 + pick(4)) + ") {");
        counters_.push_back(w);
        block(out, indent + 1, static_cast<int>(1 + pick(3)), callable);
        counters_.pop_back();
        line(out, indent + 1, w + "++;");
        line(out, indent, "}");
      } else if (r < 62) {
        line(out, indent, "if (" + expr(2) + ") {");
        block(out, indent + 1, static_cast<int>(1 + pick(3)), callable);
        if (chance(50)) {
          line(out, indent, "} else {");
          block(out, indent + 1, static_cast<int>(1 + pick(3)), callable);
        }
        line(out, indent, "}");
      } else if (r < 72 && callable > 0) {
        call(out, indent,
             static_cast<int>(pick(static_cast<unsigned>(callable))));
      } else if (r < 78) {
        // A local declared mid-body, maybe read before it is written.
        Var v{"t" + std::to_string(next_temp_++), random_type(0)};
        std::string text = declare(v.type, v.name);
        if (scalar(v.type) && types_[v.type].kind != K::Ptr && chance(40)) {
          text += " = " + value(2);
        }
        line(out, indent, text + ";");
        visible_.push_back(v);
      } else if (r < 83) {
        // Values above 2^31 in an int, read back into an index.
        line(out, indent, "gbig = " + literal() + ";");
        store_indexed_by(out, indent, "gbig / 1000000007");
      } else if (r < 88) {
        line(out, indent, chance(60) ? "GLEIPNIR_START_INSTRUMENTATION;"
                                     : "GLEIPNIR_STOP_INSTRUMENTATION;");
      } else if (r < 94 && top && in_main_) {
        heap(out, indent);
      } else {
        // Loads only, from anywhere: wild pointers, padding, stale slots.
        line(out, indent, "gbig = (" + read(2) + " + " + read(2) +
                              ") % 8589934592;");
      }
    }
  }

  /// Stores into some array, indexed by `index_expr` wrapped into range,
  /// so the value read decides which address the record names.
  void store_indexed_by(std::ostringstream& out, int indent,
                        const std::string& index_expr) {
    for (const Var& v : visible_) {
      if (types_[v.type].kind != K::Array || !scalar(types_[v.type].ref)) {
        continue;
      }
      const std::string n = std::to_string(types_[v.type].count);
      line(out, indent, v.name + "[((" + index_expr + ") % " + n + " + " + n +
                            ") % " + n + "] = 1;");
      return;
    }
    line(out, indent, "gp = &gbig + ((" + index_expr + ") % 3);");
  }

  void heap(std::ostringstream& out, int indent) {
    static const char* const kElems[] = {"int", "char", "long", "double",
                                         "short"};
    const std::string h = "h" + std::to_string(pick(2));
    const char* first = kElems[pick(std::size(kElems))];
    line(out, indent, h + " = malloc(" + std::to_string(2 + pick(12)) +
                          " * sizeof(" + first + "));");
    line(out, indent, h + "[" + std::to_string(pick(2)) + "] = " + value(1) +
                          ";");
    if (chance(70)) {
      line(out, indent, "free(" + h + ");");
      // Often a different size: heap#N+1 overlaps heap#N's block.
      line(out, indent, h + " = malloc(" + std::to_string(1 + pick(6)) +
                            " * sizeof(" + kElems[pick(std::size(kElems))] +
                            "));");
      line(out, indent, "gbig = " + h + "[" + std::to_string(pick(4)) + "] + " +
                            h + "[" + std::to_string(pick(3)) + "];");
    }
  }

  void call(std::ostringstream& out, int indent, int f) {
    const Var& arg = visible_[pick(visible_.size())];
    std::string ptr_arg;
    if (types_[arg.type].kind == K::Array) {
      ptr_arg = arg.name;
    } else {
      ptr_arg = "&" + arg.name;
    }
    line(out, indent, "f" + std::to_string(f) + "(" + expr(1) + ", " +
                          ptr_arg + ");");
  }

  void locals(std::ostringstream& out, int indent) {
    line(out, indent, "int i0, i1, w0, w1;");
    const int n = static_cast<int>(1 + pick(4));
    for (int l = 0; l < n; ++l) {
      Var v{"l" + std::to_string(l), random_type(0)};
      line(out, indent, declare(v.type, v.name) + ";");
      visible_.push_back(v);
    }
    // Read before written: in a helper these slots held the locals of
    // the call that returned before this one.
    for (std::size_t l = visible_.size() - static_cast<std::size_t>(n);
         l < visible_.size(); ++l) {
      bool through = false;
      int leaf = 0;
      const std::string p = place_in(visible_[l], 0, through, leaf);
      if (!through && leaf >= 0) store_indexed_by(out, indent, p);
    }
  }

  void make_function(std::ostringstream& src, int f) {
    in_main_ = false;
    visible_ = globals_;
    visible_.push_back({"pa", prim(K::Int)});
    visible_.push_back({"pq", add_type({K::Ptr, prim(K::Char)})});
    src << "void f" << f << "(int pa, char* pq) {\n";
    locals(src, 1);
    statements(src, 1, static_cast<int>(2 + pick(6)), true, f);
    src << "}\n";
  }

  void make_main(std::ostringstream& src, int helpers) {
    in_main_ = true;
    visible_ = globals_;
    src << "int main(void) {\n";
    line(src, 1, "long* h0;");
    line(src, 1, "long* h1;");
    visible_.push_back({"h0", add_type({K::Ptr, prim(K::Long)})});
    visible_.push_back({"h1", add_type({K::Ptr, prim(K::Long)})});
    locals(src, 1);
    if (chance(80)) line(src, 1, "GLEIPNIR_START_INSTRUMENTATION;");
    statements(src, 1, static_cast<int>(6 + pick(14)), true, helpers);
    // Call each helper twice in a row: the second call's locals sit where
    // the first call's did.
    for (int f = 0; f < helpers; ++f) {
      call(src, 1, f);
      call(src, 1, f);
    }
    line(src, 1, "GLEIPNIR_STOP_INSTRUMENTATION;");
    line(src, 1, "return 0;");
    src << "}\n";
  }

  Xoshiro256 rng_;
  std::vector<Ty> types_;
  std::vector<StructDef> structs_;
  std::vector<Var> globals_;
  std::vector<Var> visible_;
  std::vector<std::string> counters_;
  bool in_main_ = false;
  int next_temp_ = 0;
};

TEST(TracerDiff, RandomPrograms) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    const std::string source = KernelGen(seed).make();
    InterpOptions options;
    options.start_enabled = seed % 7 == 0;
    options.emit_call_overhead = seed % 5 != 0;
    options.emit_zzq_marker = seed % 3 != 0;
    if (seed % 50 == 0) options.max_records = 40;
    expect_same("seed " + std::to_string(seed) + ":\n" + source,
                from_source(source), options, &tally);
    if (HasFailure()) break;  // one program's listing is enough to debug
  }
  // The corpus must exercise the interpreter, not stop at its errors.
  EXPECT_EQ(tally.programs, 600u);
  EXPECT_LT(tally.errors, tally.programs / 5);
  EXPECT_GT(tally.records, 50'000u);
}

}  // namespace
}  // namespace tdt::tracer
