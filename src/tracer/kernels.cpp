#include "tracer/kernels.hpp"

#include <limits>
#include <numeric>
#include <vector>

#include "memsim/address_space.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tdt::tracer {
namespace {

using layout::PendingField;
using layout::TypeId;
using layout::TypeTable;

/// Defines `name` if absent, otherwise returns the existing definition so
/// kernels can share one TypeTable — after verifying the existing body
/// matches (a kernel re-instantiated with a different LEN must not pick
/// up the old layout silently).
TypeId ensure_struct(TypeTable& types, std::string name,
                     std::vector<PendingField> fields) {
  if (const TypeId existing = types.find_struct(name);
      existing != layout::kInvalidType) {
    const auto current = types.fields(existing);
    bool same = current.size() == fields.size();
    for (std::size_t i = 0; same && i < fields.size(); ++i) {
      same = current[i].name == fields[i].name &&
             current[i].type == fields[i].type;
    }
    if (!same) {
      tdt::throw_semantic_error(
          "struct '" + name +
          "' already defined with a different body; use a fresh TypeTable "
          "for kernels with different size parameters");
    }
    return existing;
  }
  return types.define_struct(std::move(name), std::move(fields));
}

LValue lv(std::string name) { return LValue(std::move(name)); }

}  // namespace

Program make_listing1(TypeTable& types) {
  const TypeId t_int = types.int_type();
  const TypeId t_double = types.double_type();
  const TypeId type_a = ensure_struct(
      types, "_typeA",
      {{"dl", t_double}, {"myArray", types.array_of(t_int, 10)}});

  Program prog;
  prog.globals = {
      {"glStruct", type_a},
      {"glStructArray", types.array_of(type_a, 10)},
      {"glScalar", t_int},
      {"glArray", types.array_of(t_int, 10)},
  };

  // void foo(struct _typeA StrcParam[]) — array parameter decays to pointer.
  FunctionDef foo;
  foo.name = "foo";
  foo.params = {{"StrcParam", types.pointer_to(type_a)}};
  {
    std::vector<StmtPtr> body;
    body.push_back(decl_local("i", t_int));
    std::vector<StmtPtr> loop;
    loop.push_back(assign(lv("glStructArray").index(rd("i")).field("dl"),
                          rd("glScalar")));
    loop.push_back(assign(lv("glStructArray")
                              .index(rd("i"))
                              .field("myArray")
                              .index(rd("i")),
                          rd(lv("glArray").index(add(rd("i"), lit(1))))));
    loop.push_back(assign(lv("StrcParam").index(rd("i")).field("dl"),
                          rd(lv("glArray").index(rd("i")))));
    body.push_back(count_loop("i", lit(2), block(std::move(loop))));
    foo.body = block(std::move(body));
  }

  FunctionDef main_fn;
  main_fn.name = "main";
  {
    std::vector<StmtPtr> body;
    body.push_back(start_instr());
    body.push_back(decl_local("lcStrcArray", types.array_of(type_a, 5)));
    body.push_back(decl_local("i", t_int));
    body.push_back(decl_local("lcScalar", t_int));
    body.push_back(decl_local("lcArray", types.array_of(t_int, 10)));
    body.push_back(assign(lv("glScalar"), lit(321)));
    body.push_back(assign(lv("lcScalar"), lit(123)));
    std::vector<StmtPtr> loop;
    loop.push_back(
        assign(lv("lcArray").index(rd("i")), rd("glScalar")));
    body.push_back(count_loop("i", lit(2), block(std::move(loop))));
    std::vector<ExprPtr> args;
    args.push_back(rd("lcStrcArray"));  // array decays to pointer
    body.push_back(call("foo", std::move(args)));
    body.push_back(stop_instr());
    main_fn.body = block(std::move(body));
  }

  prog.functions.push_back(std::move(foo));
  prog.functions.push_back(std::move(main_fn));
  return prog;
}

Program make_t1_soa(TypeTable& types, std::int64_t len) {
  const TypeId t_int = types.int_type();
  const TypeId t_double = types.double_type();
  const TypeId soa = ensure_struct(
      types, "MyStructOfArrays",
      {{"mX", types.array_of(t_int, static_cast<std::uint64_t>(len))},
       {"mY", types.array_of(t_double, static_cast<std::uint64_t>(len))}});

  Program prog;
  FunctionDef main_fn;
  main_fn.name = "main";
  std::vector<StmtPtr> body;
  body.push_back(decl_local("lSoA", soa));
  body.push_back(decl_local("lI", t_int));
  body.push_back(start_instr());
  std::vector<StmtPtr> loop;
  loop.push_back(assign(lv("lSoA").field("mX").index(rd("lI")),
                        cast_int(rd("lI"))));
  loop.push_back(assign(lv("lSoA").field("mY").index(rd("lI")),
                        cast_real(rd("lI"))));
  body.push_back(count_loop("lI", lit(len), block(std::move(loop))));
  body.push_back(stop_instr());
  main_fn.body = block(std::move(body));
  prog.functions.push_back(std::move(main_fn));
  return prog;
}

Program make_t1_aos(TypeTable& types, std::int64_t len) {
  const TypeId t_int = types.int_type();
  const TypeId t_double = types.double_type();
  const TypeId elem =
      ensure_struct(types, "MyStruct", {{"mX", t_int}, {"mY", t_double}});

  Program prog;
  FunctionDef main_fn;
  main_fn.name = "main";
  std::vector<StmtPtr> body;
  body.push_back(decl_local(
      "lAoS", types.array_of(elem, static_cast<std::uint64_t>(len))));
  body.push_back(decl_local("lI", t_int));
  body.push_back(start_instr());
  std::vector<StmtPtr> loop;
  loop.push_back(assign(lv("lAoS").index(rd("lI")).field("mX"),
                        cast_int(rd("lI"))));
  loop.push_back(assign(lv("lAoS").index(rd("lI")).field("mY"),
                        cast_real(rd("lI"))));
  body.push_back(count_loop("lI", lit(len), block(std::move(loop))));
  body.push_back(stop_instr());
  main_fn.body = block(std::move(body));
  prog.functions.push_back(std::move(main_fn));
  return prog;
}

Program make_t2_inline(TypeTable& types, std::int64_t len) {
  const TypeId t_int = types.int_type();
  const TypeId t_double = types.double_type();
  const TypeId rare =
      ensure_struct(types, "mRarelyUsed", {{"mY", t_double}, {"mZ", t_int}});
  const TypeId inline_struct = ensure_struct(
      types, "MyInlineStruct",
      {{"mFrequentlyUsed", t_int}, {"mRarelyUsed", rare}});

  Program prog;
  FunctionDef main_fn;
  main_fn.name = "main";
  std::vector<StmtPtr> body;
  body.push_back(decl_local(
      "lS1", types.array_of(inline_struct, static_cast<std::uint64_t>(len))));
  body.push_back(decl_local("lI", t_int));
  body.push_back(start_instr());
  std::vector<StmtPtr> loop;
  loop.push_back(assign(lv("lS1").index(rd("lI")).field("mFrequentlyUsed"),
                        rd("lI")));
  loop.push_back(assign(
      lv("lS1").index(rd("lI")).field("mRarelyUsed").field("mY"), rd("lI")));
  loop.push_back(assign(
      lv("lS1").index(rd("lI")).field("mRarelyUsed").field("mZ"), rd("lI")));
  body.push_back(count_loop("lI", lit(len), block(std::move(loop))));
  body.push_back(stop_instr());
  main_fn.body = block(std::move(body));
  prog.functions.push_back(std::move(main_fn));
  return prog;
}

Program make_t2_outlined(TypeTable& types, std::int64_t len) {
  const TypeId t_int = types.int_type();
  const TypeId t_double = types.double_type();
  const TypeId rare =
      ensure_struct(types, "RarelyUsed", {{"mY", t_double}, {"mZ", t_int}});
  const TypeId outlined = ensure_struct(
      types, "MyOutlinedStruct",
      {{"mFrequentlyUsed", t_int}, {"mRarelyUsed", types.pointer_to(rare)}});

  Program prog;
  FunctionDef main_fn;
  main_fn.name = "main";
  std::vector<StmtPtr> body;
  // Declaration order follows Listing 7: storage pool first, then lS2.
  body.push_back(decl_local(
      "lStorageForRarelyUsed",
      types.array_of(rare, static_cast<std::uint64_t>(len))));
  body.push_back(decl_local(
      "lS2", types.array_of(outlined, static_cast<std::uint64_t>(len))));
  body.push_back(decl_local("lI", t_int));
  // Pointer setup happens before instrumentation starts (untraced).
  std::vector<StmtPtr> setup;
  setup.push_back(assign(lv("lS2").index(rd("lI")).field("mRarelyUsed"),
                         add(rd("lStorageForRarelyUsed"), rd("lI"))));
  body.push_back(count_loop("lI", lit(len), block(std::move(setup))));
  body.push_back(start_instr());
  std::vector<StmtPtr> loop;
  loop.push_back(assign(lv("lS2").index(rd("lI")).field("mFrequentlyUsed"),
                        rd("lI")));
  loop.push_back(assign(
      lv("lS2").index(rd("lI")).field("mRarelyUsed").arrow("mY"), rd("lI")));
  loop.push_back(assign(
      lv("lS2").index(rd("lI")).field("mRarelyUsed").arrow("mZ"), rd("lI")));
  body.push_back(count_loop("lI", lit(len), block(std::move(loop))));
  body.push_back(stop_instr());
  main_fn.body = block(std::move(body));
  prog.functions.push_back(std::move(main_fn));
  return prog;
}

Program make_t3_contiguous(TypeTable& types, std::int64_t len) {
  const TypeId t_int = types.int_type();
  Program prog;
  FunctionDef main_fn;
  main_fn.name = "main";
  std::vector<StmtPtr> body;
  body.push_back(decl_local(
      "lContiguousArray",
      types.array_of(t_int, static_cast<std::uint64_t>(len))));
  body.push_back(decl_local("lI", t_int));
  body.push_back(start_instr());
  std::vector<StmtPtr> loop;
  loop.push_back(assign(lv("lContiguousArray").index(rd("lI")), rd("lI")));
  body.push_back(count_loop("lI", lit(len), block(std::move(loop))));
  body.push_back(stop_instr());
  main_fn.body = block(std::move(body));
  prog.functions.push_back(std::move(main_fn));
  return prog;
}

Program make_t3_strided(TypeTable& types, std::int64_t len, std::int64_t sets,
                        std::int64_t cacheline) {
  const TypeId t_int = types.int_type();
  const std::int64_t ipl = cacheline / 4;  // ITEMSPERLINE = CACHELINE/sizeof(int)
  if (len > 0 && sets > std::numeric_limits<std::int64_t>::max() / len) {
    throw_semantic_error("t3_strided array of LEN " + std::to_string(len) +
                         " x SETS " + std::to_string(sets) +
                         " ints does not fit in 64 bits");
  }
  Program prog;
  FunctionDef main_fn;
  main_fn.name = "main";
  std::vector<StmtPtr> body;
  body.push_back(decl_local(
      "lSetHashingArray",
      types.array_of(t_int, static_cast<std::uint64_t>(len * sets))));
  body.push_back(decl_local("lITEMSPERLINE", t_int));
  body.push_back(decl_local("lI", t_int));
  // Initialized before instrumentation, so the init store is untraced but
  // every in-loop read appears (Fig 9's repeated ITEMSPERLINE loads).
  body.push_back(assign(lv("lITEMSPERLINE"), lit(ipl)));
  body.push_back(start_instr());
  std::vector<StmtPtr> loop;
  // lSetHashingArray[(lI/IPL)*(sets*IPL) + (lI%IPL)] = lI;
  auto index_formula =
      add(mul(div(rd("lI"), rd("lITEMSPERLINE")),
              mul(lit(sets), rd("lITEMSPERLINE"))),
          mod(rd("lI"), rd("lITEMSPERLINE")));
  loop.push_back(assign(
      lv("lSetHashingArray").index(std::move(index_formula)), rd("lI")));
  body.push_back(count_loop("lI", lit(len), block(std::move(loop))));
  body.push_back(stop_instr());
  main_fn.body = block(std::move(body));
  prog.functions.push_back(std::move(main_fn));
  return prog;
}

Program make_matmul(TypeTable& types, std::int64_t n, bool ikj) {
  const TypeId t_int = types.int_type();
  const TypeId t_double = types.double_type();
  const TypeId row = types.array_of(t_double, static_cast<std::uint64_t>(n));
  const TypeId mat = types.array_of(row, static_cast<std::uint64_t>(n));

  Program prog;
  prog.globals = {{"A", mat}, {"B", mat}, {"C", mat}};
  FunctionDef main_fn;
  main_fn.name = "main";
  std::vector<StmtPtr> body;
  body.push_back(decl_local("i", t_int));
  body.push_back(decl_local("j", t_int));
  body.push_back(decl_local("k", t_int));
  body.push_back(start_instr());

  // C[i][j] += A[i][k] * B[k][j]
  auto update = [&]() {
    return modify(lv("C").index(rd("i")).index(rd("j")),
                  mul(rd(lv("A").index(rd("i")).index(rd("k"))),
                      rd(lv("B").index(rd("k")).index(rd("j")))));
  };

  StmtPtr nest;
  if (ikj) {
    std::vector<StmtPtr> inner;
    inner.push_back(update());
    auto j_loop = count_loop("j", lit(n), block(std::move(inner)));
    std::vector<StmtPtr> mid;
    mid.push_back(std::move(j_loop));
    auto k_loop = count_loop("k", lit(n), block(std::move(mid)));
    std::vector<StmtPtr> outer;
    outer.push_back(std::move(k_loop));
    nest = count_loop("i", lit(n), block(std::move(outer)));
  } else {
    std::vector<StmtPtr> inner;
    inner.push_back(update());
    auto k_loop = count_loop("k", lit(n), block(std::move(inner)));
    std::vector<StmtPtr> mid;
    mid.push_back(std::move(k_loop));
    auto j_loop = count_loop("j", lit(n), block(std::move(mid)));
    std::vector<StmtPtr> outer;
    outer.push_back(std::move(j_loop));
    nest = count_loop("i", lit(n), block(std::move(outer)));
  }
  body.push_back(std::move(nest));
  body.push_back(stop_instr());
  main_fn.body = block(std::move(body));
  prog.functions.push_back(std::move(main_fn));
  return prog;
}

Program make_row_col(TypeTable& types, std::int64_t rows, std::int64_t cols,
                     bool column_order) {
  const TypeId t_int = types.int_type();
  const TypeId row = types.array_of(t_int, static_cast<std::uint64_t>(cols));
  const TypeId mat = types.array_of(row, static_cast<std::uint64_t>(rows));

  Program prog;
  prog.globals = {{"M", mat}};
  FunctionDef main_fn;
  main_fn.name = "main";
  std::vector<StmtPtr> body;
  body.push_back(decl_local("i", t_int));
  body.push_back(decl_local("j", t_int));
  body.push_back(start_instr());
  std::vector<StmtPtr> inner;
  if (column_order) {
    // for j: for i: M[i][j] — stride `cols` ints between accesses.
    inner.push_back(assign(lv("M").index(rd("i")).index(rd("j")),
                           add(rd("i"), rd("j"))));
    auto i_loop = count_loop("i", lit(rows), block(std::move(inner)));
    std::vector<StmtPtr> outer;
    outer.push_back(std::move(i_loop));
    body.push_back(count_loop("j", lit(cols), block(std::move(outer))));
  } else {
    inner.push_back(assign(lv("M").index(rd("i")).index(rd("j")),
                           add(rd("i"), rd("j"))));
    auto j_loop = count_loop("j", lit(cols), block(std::move(inner)));
    std::vector<StmtPtr> outer;
    outer.push_back(std::move(j_loop));
    body.push_back(count_loop("i", lit(rows), block(std::move(outer))));
  }
  body.push_back(stop_instr());
  main_fn.body = block(std::move(body));
  prog.functions.push_back(std::move(main_fn));
  return prog;
}

Program make_linked_list(TypeTable& types, std::int64_t nodes, bool shuffled,
                         std::uint64_t seed) {
  const TypeId t_int = types.int_type();
  TypeId node_type = types.find_struct("ListNode");
  if (node_type == layout::kInvalidType) {
    node_type = types.forward_struct("ListNode");
    types.complete_struct(
        node_type,
        {{"value", t_int}, {"next", types.pointer_to(node_type)}});
  }
  const TypeId node_ptr = types.pointer_to(node_type);
  // The default heap would refuse the list only after the link pass
  // below built a statement per node.
  memsim::check_heap_fits(memsim::AddressSpaceConfig{},
                          static_cast<std::uint64_t>(nodes),
                          types.size_of(node_type));

  // Visit order: identity or a seeded Fisher-Yates shuffle.
  std::vector<std::int64_t> order(static_cast<std::size_t>(nodes));
  std::iota(order.begin(), order.end(), 0);
  if (shuffled) {
    Xoshiro256 rng(seed);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
  }

  Program prog;
  FunctionDef main_fn;
  main_fn.name = "main";
  std::vector<StmtPtr> body;
  body.push_back(decl_local("head", node_ptr));
  body.push_back(decl_local("p", node_ptr));
  body.push_back(decl_local("acc", t_int));
  body.push_back(decl_local("lI", t_int));
  body.push_back(heap_alloc(lv("head"), node_type, lit(nodes)));
  // Link pass (untraced): head[order[k]].next = &head[order[k+1]].
  for (std::int64_t k = 0; k + 1 < nodes; ++k) {
    body.push_back(assign(
        lv("head").index(lit(order[static_cast<std::size_t>(k)])).field("next"),
        add(rd("head"), lit(order[static_cast<std::size_t>(k + 1)]))));
  }
  body.push_back(assign(
      lv("head").index(lit(order[static_cast<std::size_t>(nodes - 1)])).field(
          "next"),
      lit(0)));
  body.push_back(assign(lv("p"), add(rd("head"), lit(order[0]))));
  body.push_back(assign(lv("acc"), lit(0)));
  body.push_back(start_instr());
  std::vector<StmtPtr> walk;
  walk.push_back(modify(lv("acc"), rd(lv("p").arrow("value"))));
  walk.push_back(assign(lv("p"), rd(lv("p").arrow("next"))));
  body.push_back(count_loop("lI", lit(nodes), block(std::move(walk))));
  body.push_back(stop_instr());
  main_fn.body = block(std::move(body));
  prog.functions.push_back(std::move(main_fn));
  return prog;
}

}  // namespace tdt::tracer
