#include "core/rule_parser.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace tdt::core {
namespace {

// The paper's Listing 5 rule, verbatim structure.
constexpr const char* kListing5 = R"(
in:
struct lSoA {
  int mX[16];
  double mY[16];
};
out:
struct lAoS {
  int mX;
  double mY;
}[16];
)";

// Listing 8 with the paper's pool-type typo fixed (types must match the
// in elements; see EXPERIMENTS.md).
constexpr const char* kListing8 = R"(
in:
struct mRarelyUsed {
  double mY;
  int mZ;
};
struct lS1 {
  int mFrequentlyUsed;
  struct mRarelyUsed;
}[16];
out:
struct lStorageForRarelyUsed {
  double mY;
  int mZ;
}[16];
struct lS2 {
  int mFrequentlyUsed;
  + mRarelyUsed:lStorageForRarelyUsed;
}[16];
)";

// Listing 11 plus the inject extension.
constexpr const char* kListing11 = R"(
in:
int lContiguousArray[1024]:lSetHashingArray;
out:
int lSetHashingArray[16384((lI/8)*(16*8)+(lI%8))];
inject:
L lITEMSPERLINE 4;
L lI 4;
)";

TEST(RuleParser, Listing5ParsesAsLayoutRule) {
  const RuleSet rules = parse_rules(kListing5);
  ASSERT_EQ(rules.rules().size(), 1u);
  const auto& rule = std::get<StructRule>(rules.rules()[0]);
  EXPECT_EQ(rule.in_name, "lSoA");
  EXPECT_TRUE(rule.links.empty());
  ASSERT_EQ(rule.outs.size(), 1u);
  EXPECT_EQ(rule.outs[0].name, "lAoS");
  // lAoS is an array of 16 16-byte structs.
  EXPECT_EQ(rules.types().size_of(rule.outs[0].type), 256u);
  EXPECT_EQ(rules.types().size_of(rule.in_type), 192u);  // 64 + 128
}

TEST(RuleParser, Listing8ParsesAsIndirectionRule) {
  const RuleSet rules = parse_rules(kListing8);
  ASSERT_EQ(rules.rules().size(), 1u);
  const auto& rule = std::get<StructRule>(rules.rules()[0]);
  EXPECT_EQ(rule.in_name, "lS1");
  ASSERT_EQ(rule.outs.size(), 2u);
  EXPECT_EQ(rule.outs[0].name, "lStorageForRarelyUsed");
  EXPECT_EQ(rule.outs[1].name, "lS2");
  ASSERT_EQ(rule.links.size(), 1u);
  EXPECT_EQ(rule.links[0].owner, "lS2");
  EXPECT_EQ(rule.links[0].field, "mRarelyUsed");
  EXPECT_EQ(rule.links[0].pool, "lStorageForRarelyUsed");
  // lS2 element: int + pointer = 16 bytes.
  const auto& t = rules.types();
  EXPECT_EQ(t.size_of(t.element(rule.outs[1].type)), 16u);
}

TEST(RuleParser, Listing11ParsesAsStrideRule) {
  const RuleSet rules = parse_rules(kListing11);
  ASSERT_EQ(rules.rules().size(), 1u);
  const auto& rule = std::get<StrideRule>(rules.rules()[0]);
  EXPECT_EQ(rule.in_name, "lContiguousArray");
  EXPECT_EQ(rule.in_count, 1024u);
  EXPECT_EQ(rule.out_name, "lSetHashingArray");
  EXPECT_EQ(rule.out_count, 16384u);
  EXPECT_EQ(rule.formula.eval(8), 128);
  ASSERT_EQ(rule.injects.size(), 2u);
  EXPECT_EQ(rule.injects[0].name, "lITEMSPERLINE");
  EXPECT_EQ(rule.injects[0].size, 4u);
  EXPECT_EQ(rule.injects[1].name, "lI");
}

TEST(RuleParser, MultipleRulesInOneFile) {
  const std::string text = std::string(kListing5) + kListing11;
  const RuleSet rules = parse_rules(text);
  EXPECT_EQ(rules.rules().size(), 2u);
  EXPECT_NE(rules.find("lSoA"), nullptr);
  EXPECT_NE(rules.find("lContiguousArray"), nullptr);
  EXPECT_EQ(rules.find("nothing"), nullptr);
}

TEST(RuleParser, DuplicateInVariableRejected) {
  const std::string text = std::string(kListing5) + kListing5;
  EXPECT_THROW((void)parse_rules(text), Error);
}

TEST(RuleParser, MissingOutSectionRejected) {
  EXPECT_THROW((void)parse_rules("in:\nstruct X { int a; };\n"), Error);
}

TEST(RuleParser, EmptyInSectionRejected) {
  EXPECT_THROW((void)parse_rules("in:\nout:\nstruct Y { int a; };\n"), Error);
}

TEST(RuleParser, UnknownPoolRejected) {
  const char* text = R"(
in:
struct A { int x; }[4];
out:
struct B {
  + x:NoSuchPool;
}[4];
)";
  EXPECT_THROW((void)parse_rules(text), Error);
}

TEST(RuleParser, UnmappableElementRejected) {
  // out lacks element 'b' -> validation error surfaces at parse.
  const char* text = R"(
in:
struct A { int a; int b; };
out:
struct B { int a; };
)";
  EXPECT_THROW((void)parse_rules(text), Error);
}

TEST(RuleParser, WildcardCountMismatchRejected) {
  const char* text = R"(
in:
struct A { int m[4]; };
out:
struct B { int m; };
)";
  EXPECT_THROW((void)parse_rules(text), Error);
}

TEST(RuleParser, StrideFormulaOutOfRangeRejected) {
  const char* text = R"(
in:
int a[64]:b;
out:
int b[8(lI*2)];
)";
  EXPECT_THROW((void)parse_rules(text), Error);
}

TEST(RuleParser, StrideOutNameMustMatch) {
  const char* text = R"(
in:
int a[8]:b;
out:
int c[64(lI)];
)";
  EXPECT_THROW((void)parse_rules(text), Error);
}

TEST(RuleParser, StrideElemTypeMustMatch) {
  const char* text = R"(
in:
int a[8]:b;
out:
double b[64(lI)];
)";
  EXPECT_THROW((void)parse_rules(text), Error);
}

TEST(RuleParser, InjectOnStructRuleRejected) {
  const std::string text = std::string(kListing5) + "inject:\nL x 4;\n";
  EXPECT_THROW((void)parse_rules(text), Error);
}

TEST(RuleParser, BadInjectKindRejected) {
  const char* text = R"(
in:
int a[8]:b;
out:
int b[64(lI)];
inject:
Q x 4;
)";
  EXPECT_THROW((void)parse_rules(text), Error);
}

TEST(RuleParser, BadInjectSizeRejected) {
  // A record covers 1 to 2^32 - 1 bytes; 2^32 must not wrap to 0.
  for (const char* size : {"0", "4294967296"}) {
    const std::string text = std::string(R"(
in:
int a[8]:b;
out:
int b[64(lI)];
inject:
L x )") + size + ";\n";
    try {
      (void)parse_rules(text);
      ADD_FAILURE() << "inject size " << size << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("bad inject access size"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RuleParser, SizeChangeIsWarningNotError) {
  // Narrowing double -> float is allowed but flagged.
  const char* text = R"(
in:
struct A { double v; };
out:
struct B { float v; };
)";
  const RuleSet rules = parse_rules(text);
  const auto diags = rules.validate();
  bool warned = false;
  for (const auto& d : diags) {
    if (d.severity == RuleDiagnostic::Severity::Warning &&
        d.message.find("changes size") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
}

TEST(RuleParser, UncoveredOutElementWarns) {
  const char* text = R"(
in:
struct A { int a; };
out:
struct B { int a; int padding; };
)";
  const RuleSet rules = parse_rules(text);
  const auto diags = rules.validate();
  bool warned = false;
  for (const auto& d : diags) {
    warned |= d.message.find("receives no in data") != std::string::npos;
  }
  EXPECT_TRUE(warned);
}

TEST(RuleParser, CommentsAllowed) {
  const char* text = R"(
# whole-line comment
in:
// C++ style
struct A { int a; /* inline */ };
out:
struct B { int a; };
)";
  EXPECT_EQ(parse_rules(text).rules().size(), 1u);
}

TEST(RuleParser, RenderRuleRoundTrips) {
  for (const char* text : {kListing5, kListing8, kListing11}) {
    const RuleSet first = parse_rules(text);
    const std::string rendered =
        render_rule(first.types(), first.rules()[0]);
    const RuleSet second = parse_rules(rendered);
    ASSERT_EQ(second.rules().size(), 1u);
    EXPECT_EQ(rule_in_name(second.rules()[0]),
              rule_in_name(first.rules()[0]));
  }
}

TEST(RuleParser, FieldReorderingRule) {
  // An extension the mapping engine supports beyond the paper: reorder
  // fields to pack hot members together.
  const char* text = R"(
in:
struct Packet { char tag; double payload; char flag; };
out:
struct PackedPacket { char tag; char flag; double payload; };
)";
  const RuleSet rules = parse_rules(text);
  const auto& rule = std::get<StructRule>(rules.rules()[0]);
  const auto& t = rules.types();
  // Reordered struct sheds the padding: 24 -> 16 bytes.
  EXPECT_EQ(t.size_of(rule.in_type), 24u);
  EXPECT_EQ(t.size_of(rule.outs[0].type), 16u);
}

TEST(RuleParser, MissingFileThrowsIo) {
  try {
    (void)parse_rules_file("/no/such/rules.file");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
}

}  // namespace
}  // namespace tdt::core
