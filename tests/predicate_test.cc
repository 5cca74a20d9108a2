// Tests for src/expr: predicate construction and evaluation.
#include <gtest/gtest.h>

#include "src/expr/predicate.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

class PredicateTest : public testing::Test {
 protected:
  Table table_ = MakeStudentTable();

  size_t CountMatches(const PredicatePtr& p) {
    auto mask = p->Evaluate(table_);
    CVOPT_CHECK(mask.ok(), "evaluate failed");
    size_t n = 0;
    for (uint8_t b : *mask) n += b;
    return n;
  }
};

TEST_F(PredicateTest, TrueSelectsEverything) {
  EXPECT_EQ(CountMatches(Predicate::True()), 8u);
}

TEST_F(PredicateTest, NumericComparisons) {
  EXPECT_EQ(CountMatches(Predicate::Compare("age", CompareOp::kGt, 25)), 3u);
  EXPECT_EQ(CountMatches(Predicate::Compare("age", CompareOp::kGe, 25)), 4u);
  EXPECT_EQ(CountMatches(Predicate::Compare("age", CompareOp::kLt, 22)), 1u);
  EXPECT_EQ(CountMatches(Predicate::Compare("age", CompareOp::kLe, 22)), 2u);
  EXPECT_EQ(CountMatches(Predicate::Compare("age", CompareOp::kEq, 25)), 1u);
  EXPECT_EQ(CountMatches(Predicate::Compare("age", CompareOp::kNe, 25)), 7u);
}

TEST_F(PredicateTest, DoubleColumnComparison) {
  EXPECT_EQ(CountMatches(Predicate::Compare("gpa", CompareOp::kGt, 3.5)), 3u);
  EXPECT_EQ(CountMatches(Predicate::Compare("gpa", CompareOp::kLe, 3.2)), 2u);
}

TEST_F(PredicateTest, StringEquality) {
  EXPECT_EQ(CountMatches(Predicate::Compare("major", CompareOp::kEq, "CS")), 2u);
  EXPECT_EQ(CountMatches(Predicate::Compare("major", CompareOp::kNe, "CS")), 6u);
  EXPECT_EQ(
      CountMatches(Predicate::Compare("college", CompareOp::kEq, "Science")),
      4u);
}

TEST_F(PredicateTest, StringEqualityAgainstUnknownLiteral) {
  EXPECT_EQ(CountMatches(Predicate::Compare("major", CompareOp::kEq, "Bio")), 0u);
  EXPECT_EQ(CountMatches(Predicate::Compare("major", CompareOp::kNe, "Bio")), 8u);
}

TEST_F(PredicateTest, StringOrderedComparison) {
  // Majors: CS(2), Math(2), EE(2), ME(2). Lexicographic < "F": CS, EE.
  EXPECT_EQ(CountMatches(Predicate::Compare("major", CompareOp::kLt, "F")), 4u);
}

TEST_F(PredicateTest, Between) {
  EXPECT_EQ(CountMatches(Predicate::Between("age", 22, 25)), 4u);
  EXPECT_EQ(CountMatches(Predicate::Between("gpa", 3.3, 3.6)), 4u);
  // BETWEEN is inclusive on both ends.
  EXPECT_EQ(CountMatches(Predicate::Between("age", 21, 21)), 1u);
}

TEST_F(PredicateTest, InList) {
  EXPECT_EQ(CountMatches(Predicate::In("major", {Value("CS"), Value("ME")})), 4u);
  EXPECT_EQ(CountMatches(
                Predicate::In("age", {Value(21), Value(22), Value(99)})),
            2u);
  EXPECT_EQ(CountMatches(Predicate::In("major", {})), 0u);
}

TEST_F(PredicateTest, BooleanCombinators) {
  auto science = Predicate::Compare("college", CompareOp::kEq, "Science");
  auto young = Predicate::Compare("age", CompareOp::kLt, 25);
  // Science: rows 1-4 (ages 25,22,24,28); young (<25): ages 22,24,21,23.
  EXPECT_EQ(CountMatches(Predicate::And(science, young)), 2u);
  EXPECT_EQ(CountMatches(Predicate::Or(science, young)), 6u);
  EXPECT_EQ(CountMatches(Predicate::Not(science)), 4u);
  EXPECT_EQ(CountMatches(Predicate::Not(Predicate::True())), 0u);
}

TEST_F(PredicateTest, MatchesSingleRow) {
  auto p = Predicate::Compare("major", CompareOp::kEq, "EE");
  ASSERT_OK_AND_ASSIGN(bool m4, p->Matches(table_, 4));
  ASSERT_OK_AND_ASSIGN(bool m0, p->Matches(table_, 0));
  EXPECT_TRUE(m4);
  EXPECT_FALSE(m0);
}

TEST_F(PredicateTest, Selectivity) {
  auto p = Predicate::Compare("college", CompareOp::kEq, "Science");
  ASSERT_OK_AND_ASSIGN(double sel, p->Selectivity(table_));
  EXPECT_DOUBLE_EQ(sel, 0.5);
}

TEST_F(PredicateTest, TypeErrors) {
  EXPECT_FALSE(
      Predicate::Compare("age", CompareOp::kEq, "str")->Evaluate(table_).ok());
  EXPECT_FALSE(
      Predicate::Compare("major", CompareOp::kEq, 5)->Evaluate(table_).ok());
  EXPECT_FALSE(Predicate::Between("major", Value("a"), Value("b"))
                   ->Evaluate(table_)
                   .ok());
  EXPECT_FALSE(
      Predicate::In("age", {Value("x")})->Evaluate(table_).ok());
  EXPECT_FALSE(Predicate::Compare("nope", CompareOp::kEq, 1)
                   ->Evaluate(table_)
                   .ok());
}

TEST_F(PredicateTest, ToStringRendersSqlish) {
  auto p = Predicate::And(Predicate::Compare("age", CompareOp::kGt, 21),
                          Predicate::Between("gpa", 3.0, 3.5));
  EXPECT_EQ(p->ToString(), "(age > 21 AND gpa BETWEEN 3.0 AND 3.5)");
  EXPECT_EQ(Predicate::Not(Predicate::True())->ToString(), "NOT (TRUE)");
  EXPECT_EQ(Predicate::In("m", {Value("a"), Value("b")})->ToString(),
            "m IN (a, b)");
}

}  // namespace
}  // namespace cvopt
