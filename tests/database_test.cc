// Tests for the Interpretation / ThreeValuedInterp containers and the
// grounding data structures.
#include <gtest/gtest.h>

#include "awr/datalog/builders.h"
#include "awr/datalog/database.h"
#include "awr/datalog/ground.h"

namespace awr::datalog {
namespace {

using namespace awr::datalog::build;  // NOLINT

TEST(InterpretationTest, AddAndQueryFacts) {
  Interpretation interp;
  EXPECT_TRUE(interp.AddFact("p", {Value::Int(1), Value::Atom("x")}));
  EXPECT_FALSE(interp.AddFact("p", {Value::Int(1), Value::Atom("x")}));
  EXPECT_TRUE(interp.Holds("p", Value::Tuple({Value::Int(1), Value::Atom("x")})));
  EXPECT_FALSE(interp.Holds("p", Value::Tuple({Value::Int(2), Value::Atom("x")})));
  EXPECT_FALSE(interp.Holds("q", Value::Tuple({Value::Int(1)})));
  EXPECT_EQ(interp.Extent("p").size(), 1u);
  EXPECT_EQ(interp.Extent("missing").size(), 0u);
  EXPECT_EQ(interp.TotalFacts(), 1u);
}

TEST(InterpretationTest, InsertAllAndSubset) {
  Interpretation a, b;
  a.AddFact("p", {Value::Int(1)});
  b.AddFact("p", {Value::Int(1)});
  b.AddFact("p", {Value::Int(2)});
  b.AddFact("q", {Value::Int(3)});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_EQ(a.InsertAll(b), 2u);
  EXPECT_TRUE(b.IsSubsetOf(a));
  EXPECT_EQ(a, b);
}

TEST(InterpretationTest, EqualityIsExtentWise) {
  Interpretation a, b;
  a.AddFact("p", {Value::Int(1)});
  b.AddFact("q", {Value::Int(1)});
  EXPECT_NE(a, b);
  // A predicate with an empty extent equals an absent predicate.
  Interpretation c;
  c.MutableExtent("zzz");
  EXPECT_EQ(c, Interpretation{});
}

TEST(InterpretationTest, EmptyExtentEqualsMissingEntryOnEitherSide) {
  // Empty entries interleaved with non-empty ones, on both sides and in
  // both argument orders.
  Interpretation a, b;
  a.AddFact("m", {Value::Int(1)});
  a.MutableExtent("a");
  a.MutableExtent("z");
  b.MutableExtent("b");
  b.AddFact("m", {Value::Int(1)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, a);
  // An empty entry never stands in for a non-empty one.
  Interpretation c;
  c.MutableExtent("m");
  EXPECT_NE(a, c);
  EXPECT_NE(c, a);
  // Nor does it hide a missing trailing extent.
  b.AddFact("z", {Value::Int(2)});
  EXPECT_NE(a, b);
  EXPECT_NE(b, a);
}

TEST(InterpretationTest, SameSizeExtentsWithDifferentFactsDiffer) {
  Interpretation a, b;
  a.AddFact("p", {Value::Int(1)});
  a.AddFact("p", {Value::Int(2)});
  a.AddFact("q", {Value::Int(9)});
  b.AddFact("p", {Value::Int(1)});
  b.AddFact("p", {Value::Int(3)});
  b.AddFact("q", {Value::Int(9)});
  EXPECT_NE(a, b);
  EXPECT_NE(b, a);
  // Same per-predicate sizes, with the facts under different predicates.
  Interpretation c, d;
  c.AddFact("p", {Value::Int(1)});
  c.AddFact("q", {Value::Int(2)});
  d.AddFact("p", {Value::Int(2)});
  d.AddFact("q", {Value::Int(1)});
  EXPECT_NE(c, d);
  EXPECT_NE(d, c);
}

TEST(InterpretationTest, OverlaidTakesOverlayEntriesAndKeepsTheRest) {
  Interpretation base, overlay;
  base.AddFact("edb", {Value::Int(1)});
  base.AddFact("idb", {Value::Int(2)});
  base.MutableExtent("empty");
  overlay.AddFact("idb", {Value::Int(2)});
  overlay.AddFact("idb", {Value::Int(3)});
  overlay.AddFact("new", {Value::Int(4)});
  Interpretation full = Overlaid(base, overlay);
  EXPECT_EQ(full.ToString(),
            "edb = {<1>}\nempty = {}\nidb = {<2>, <3>}\nnew = {<4>}\n");
  Interpretation moved = base;
  moved.OverlayWith(overlay);
  EXPECT_EQ(moved.ToString(), full.ToString());
}

TEST(InterpretationTest, DeterministicToString) {
  Interpretation interp;
  interp.AddFact("b_pred", {Value::Int(2)});
  interp.AddFact("a_pred", {Value::Int(1)});
  std::string s = interp.ToString();
  EXPECT_LT(s.find("a_pred"), s.find("b_pred"));
}

TEST(ThreeValuedTest, QueryFactClassification) {
  ThreeValuedInterp tv;
  tv.certain.AddFact("p", {Value::Int(1)});
  tv.possible.AddFact("p", {Value::Int(1)});
  tv.possible.AddFact("p", {Value::Int(2)});
  EXPECT_EQ(tv.QueryFact("p", Value::Tuple({Value::Int(1)})), Truth::kTrue);
  EXPECT_EQ(tv.QueryFact("p", Value::Tuple({Value::Int(2)})), Truth::kUndefined);
  EXPECT_EQ(tv.QueryFact("p", Value::Tuple({Value::Int(3)})), Truth::kFalse);
  EXPECT_FALSE(tv.IsTwoValued());
  EXPECT_EQ(tv.UndefinedFacts().TotalFacts(), 1u);
}

TEST(ThreeValuedTest, TotalModel) {
  ThreeValuedInterp tv;
  tv.certain.AddFact("p", {Value::Int(1)});
  tv.possible.AddFact("p", {Value::Int(1)});
  EXPECT_TRUE(tv.IsTwoValued());
  EXPECT_EQ(tv.UndefinedFacts().TotalFacts(), 0u);
}

TEST(TruthTest, Names) {
  EXPECT_EQ(TruthToString(Truth::kTrue), "true");
  EXPECT_EQ(TruthToString(Truth::kFalse), "false");
  EXPECT_EQ(TruthToString(Truth::kUndefined), "undefined");
}

TEST(GroundAtomTest, OrderingAndRendering) {
  GroundAtom a{"p", Value::Tuple({Value::Int(1)})};
  GroundAtom b{"p", Value::Tuple({Value::Int(2)})};
  GroundAtom c{"q", Value::Tuple({Value::Int(0)})};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_EQ(a, (GroundAtom{"p", Value::Tuple({Value::Int(1)})}));
  EXPECT_EQ(a.ToString(), "p(1)");
  EXPECT_EQ(GroundAtomHash{}(a),
            GroundAtomHash{}(GroundAtom{"p", Value::Tuple({Value::Int(1)})}));
}

TEST(GroundRuleTest, Rendering) {
  GroundRule r;
  r.head = {"win", Value::Tuple({Value::Atom("a")})};
  r.pos.push_back({"move", Value::Tuple({Value::Atom("a"), Value::Atom("b")})});
  r.neg.push_back({"win", Value::Tuple({Value::Atom("b")})});
  EXPECT_EQ(r.ToString(), "win(a) :- move(a, b), not win(b).");
}

TEST(GroundProgramTest, ComparisonsEvaluatedAway) {
  // Grounding a rule with comparisons yields ground rules without them.
  Program p;
  p.rules.push_back(R(H("small", V("x")),
                      {B("num", V("x")), Lt(V("x"), I(2)), N("skip", V("x"))}));
  Database edb;
  for (int i = 0; i < 4; ++i) edb.AddFact("num", {Value::Int(i)});
  auto ground = GroundProgramFor(p, edb);
  ASSERT_TRUE(ground.ok()) << ground.status();
  // Only x=0 and x=1 survive the comparison.
  EXPECT_EQ(ground->rules.size(), 2u);
  for (const GroundRule& r : ground->rules) {
    EXPECT_EQ(r.pos.size(), 1u);  // num(x)
    // skip is outside WFS-possible (no rules): its negation simplifies
    // away entirely.
    EXPECT_TRUE(r.neg.empty());
  }
}

}  // namespace
}  // namespace awr::datalog
