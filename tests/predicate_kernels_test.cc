// Differential tests for the compiled predicate engine: random predicate
// trees evaluated by the vectorized kernel plan (every entry point: masks
// and selection vectors over the table and over row ranges, scalar)
// against an independent naive
// row-at-a-time reference evaluator, across all predicate kinds, column
// types, NaN values/literals, missing dictionary literals, and int64
// magnitudes where double rounding would lie. Plus executor parity: a
// masked exact group-by must equal the unmasked group-by over the
// pre-filtered table.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "src/exec/group_by_executor.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/predicate.h"
#include "src/sample/streaming_cvopt_sampler.h"
#include "src/util/simd.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Table with string / int / NaN-bearing double / clean double columns.
Table MakeKernelFuzzTable(uint64_t seed, size_t rows) {
  Schema schema({{"s", DataType::kString},
                 {"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng rng(seed);
  const char* cats[] = {"a", "bb", "c", "dd", "e"};
  const int64_t big[] = {(int64_t{1} << 53) + 1, (int64_t{1} << 53) - 1,
                         std::numeric_limits<int64_t>::max(),
                         std::numeric_limits<int64_t>::min()};
  for (size_t r = 0; r < rows; ++r) {
    const int64_t iv = rng.NextBernoulli(0.05)
                           ? big[rng.Uniform(4)]
                           : static_cast<int64_t>(rng.Uniform(24)) - 6;
    const double dv =
        rng.NextBernoulli(0.1) ? kNaN : rng.UniformDouble(-8, 8);
    Status st = b.AppendRow({Value(cats[rng.Uniform(5)]), Value(iv),
                             Value(dv), Value(rng.UniformDouble(0, 100))});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

// A random predicate spec that can build the engine's Predicate AST *and*
// evaluate itself naively. The naive path compares int64-vs-double through
// long double (64-bit mantissa: exact for every int64 and double), so it is
// an independent oracle for the kernel engine's int-domain rewrites.
struct RefPred {
  enum Kind { kCmp, kBetween, kIn, kAnd, kOr, kNot } kind = kCmp;
  std::string col;
  CompareOp op = CompareOp::kEq;
  Value lit, hi;
  std::vector<Value> vals;
  std::vector<RefPred> kids;

  PredicatePtr Build() const {
    switch (kind) {
      case kCmp:
        return Predicate::Compare(col, op, lit);
      case kBetween:
        return Predicate::Between(col, lit, hi);
      case kIn:
        return Predicate::In(col, vals);
      case kAnd:
        return Predicate::And(kids[0].Build(), kids[1].Build());
      case kOr:
        return Predicate::Or(kids[0].Build(), kids[1].Build());
      case kNot:
        return Predicate::Not(kids[0].Build());
    }
    return Predicate::True();
  }

  static bool CmpLD(CompareOp op, long double a, long double b) {
    switch (op) {
      case CompareOp::kEq: return a == b;
      case CompareOp::kNe: return a != b;
      case CompareOp::kLt: return a < b;
      case CompareOp::kLe: return a <= b;
      case CompareOp::kGt: return a > b;
      case CompareOp::kGe: return a >= b;
    }
    return false;
  }

  bool Eval(const Table& t, size_t row) const {
    switch (kind) {
      case kCmp: {
        const Column& c = *std::move(t.ColumnByName(col)).ValueOrDie();
        if (c.type() == DataType::kString) {
          const std::string& s = c.GetString(row);
          switch (op) {
            case CompareOp::kEq: return s == lit.AsString();
            case CompareOp::kNe: return s != lit.AsString();
            case CompareOp::kLt: return s < lit.AsString();
            case CompareOp::kLe: return s <= lit.AsString();
            case CompareOp::kGt: return s > lit.AsString();
            case CompareOp::kGe: return s >= lit.AsString();
          }
          return false;
        }
        if (c.type() == DataType::kInt64) {
          if (lit.is_double() && std::isnan(lit.AsDouble())) return false;
          const long double a = static_cast<long double>(c.GetInt(row));
          const long double b =
              lit.is_int() ? static_cast<long double>(lit.AsInt())
                           : static_cast<long double>(lit.AsDouble());
          return CmpLD(op, a, b);
        }
        const double x = c.GetDouble(row);
        const double d = lit.AsDouble();  // literals coerce to the column type
        if (std::isnan(x) || std::isnan(d)) return false;
        return CmpLD(op, x, d);
      }
      case kBetween: {
        const Column& c = *std::move(t.ColumnByName(col)).ValueOrDie();
        const double lo = lit.AsDouble(), h = hi.AsDouble();
        if (std::isnan(lo) || std::isnan(h)) return false;
        if (c.type() == DataType::kInt64) {
          const long double a = static_cast<long double>(c.GetInt(row));
          return a >= static_cast<long double>(lo) &&
                 a <= static_cast<long double>(h);
        }
        const double x = c.GetDouble(row);
        if (std::isnan(x)) return false;
        return x >= lo && x <= h;
      }
      case kIn: {
        const Column& c = *std::move(t.ColumnByName(col)).ValueOrDie();
        if (c.type() == DataType::kString) {
          const std::string& s = c.GetString(row);
          for (const auto& v : vals) {
            if (v.AsString() == s) return true;
          }
          return false;
        }
        if (c.type() == DataType::kInt64) {
          const long double a = static_cast<long double>(c.GetInt(row));
          for (const auto& v : vals) {
            const double d = v.is_int() ? 0.0 : v.AsDouble();
            if (!v.is_int() && std::isnan(d)) continue;
            const long double b =
                v.is_int() ? static_cast<long double>(v.AsInt())
                           : static_cast<long double>(d);
            if (a == b) return true;
          }
          return false;
        }
        const double x = c.GetDouble(row);
        if (std::isnan(x)) return false;
        for (const auto& v : vals) {
          const double d = v.AsDouble();
          if (!std::isnan(d) && d == x) return true;
        }
        return false;
      }
      case kAnd: return kids[0].Eval(t, row) && kids[1].Eval(t, row);
      case kOr: return kids[0].Eval(t, row) || kids[1].Eval(t, row);
      case kNot: return !kids[0].Eval(t, row);
    }
    return false;
  }
};

Value RandomNumericLiteral(Rng* rng) {
  switch (rng->Uniform(6)) {
    case 0:
      return Value(static_cast<int64_t>(rng->Uniform(24)) - 6);
    case 1:
      return Value(rng->UniformDouble(-9, 9));  // usually fractional
    case 2:
      return Value(static_cast<double>(static_cast<int64_t>(rng->Uniform(20)) - 5));
    case 3: {
      const double specials[] = {kNaN, kInf, -kInf, 1e300, -1e300,
                                 9007199254740993.0 /* 2^53+1 rounded */};
      return Value(specials[rng->Uniform(6)]);
    }
    case 4: {
      const int64_t big[] = {(int64_t{1} << 53) + 1, (int64_t{1} << 53),
                             std::numeric_limits<int64_t>::max(),
                             std::numeric_limits<int64_t>::min()};
      return Value(big[rng->Uniform(4)]);
    }
    default:
      return Value(rng->UniformDouble(-1, 1));
  }
}

RefPred RandomRefPred(Rng* rng, int depth) {
  const char* strs[] = {"a", "bb", "c", "dd", "e", "zz"};  // zz never occurs
  RefPred p;
  if (depth > 0 && rng->NextDouble() < 0.4) {
    const int k = static_cast<int>(rng->Uniform(3));
    p.kind = k == 0 ? RefPred::kAnd : (k == 1 ? RefPred::kOr : RefPred::kNot);
    p.kids.push_back(RandomRefPred(rng, depth - 1));
    if (p.kind != RefPred::kNot) p.kids.push_back(RandomRefPred(rng, depth - 1));
    return p;
  }
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  switch (rng->Uniform(6)) {
    case 0:
      p.kind = RefPred::kCmp;
      p.col = "s";
      p.op = ops[rng->Uniform(6)];
      p.lit = Value(strs[rng->Uniform(6)]);
      break;
    case 1:
      p.kind = RefPred::kCmp;
      p.col = "i";
      p.op = ops[rng->Uniform(6)];
      p.lit = RandomNumericLiteral(rng);
      break;
    case 2:
      p.kind = RefPred::kCmp;
      p.col = "d";
      p.op = ops[rng->Uniform(6)];
      p.lit = RandomNumericLiteral(rng);
      break;
    case 3: {
      p.kind = RefPred::kBetween;
      p.col = rng->NextBernoulli(0.5) ? "i" : "d";
      p.lit = RandomNumericLiteral(rng);
      p.hi = RandomNumericLiteral(rng);
      break;
    }
    case 4: {
      p.kind = RefPred::kIn;
      p.col = "s";
      const size_t n = rng->Uniform(4);  // possibly empty
      for (size_t j = 0; j < n; ++j) p.vals.push_back(Value(strs[rng->Uniform(6)]));
      break;
    }
    default: {
      p.kind = RefPred::kIn;
      p.col = rng->NextBernoulli(0.5) ? "i" : "d";
      const size_t n = rng->Uniform(5);
      for (size_t j = 0; j < n; ++j) p.vals.push_back(RandomNumericLiteral(rng));
      break;
    }
  }
  return p;
}

// A random row range [lo, hi) within [0, n], empty ranges included.
std::pair<size_t, size_t> RandomRange(Rng* rng, size_t n) {
  size_t lo = rng->Uniform(n + 1), hi = rng->Uniform(n + 1);
  if (lo > hi) std::swap(lo, hi);
  return {lo, hi};
}

class KernelFuzz : public testing::TestWithParam<int> {};

TEST_P(KernelFuzz, AllEntryPointsMatchNaiveReference) {
  Table t = MakeKernelFuzzTable(3100 + GetParam(), 311);
  const size_t n = t.num_rows();
  Rng rng(9100 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const RefPred spec = RandomRefPred(&rng, 3);
    const PredicatePtr p = spec.Build();
    ASSERT_OK_AND_ASSIGN(CompiledPredicate cp,
                         CompiledPredicate::Compile(t, *p));

    // Reference truth per row.
    std::vector<uint8_t> want(n);
    for (size_t r = 0; r < n; ++r) want[r] = spec.Eval(t, r) ? 1 : 0;

    // Full-table mask.
    std::vector<uint8_t> mask(n);
    cp.EvalMaskRange(0, n, mask.data());
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(mask[r], want[r]) << "row " << r << " of " << p->ToString();
    }

    // Selection vector == rows where the mask is set.
    std::vector<uint32_t> want_sel;
    for (size_t r = 0; r < n; ++r) {
      if (want[r]) want_sel.push_back(static_cast<uint32_t>(r));
    }
    ASSERT_EQ(cp.Select(), want_sel) << p->ToString();

    // Mask and selection over random unaligned row ranges (the morsel
    // units; AND chains refine their seeded rows in place).
    for (int k = 0; k < 4; ++k) {
      const auto [lo, hi] = RandomRange(&rng, n);
      std::vector<uint8_t> sub(hi - lo);
      cp.EvalMaskRange(lo, hi, sub.data());
      std::vector<uint32_t> want_range;
      for (size_t r = lo; r < hi; ++r) {
        ASSERT_EQ(sub[r - lo], want[r]) << "row " << r << " of "
                                        << p->ToString();
        if (want[r]) want_range.push_back(static_cast<uint32_t>(r));
      }
      ASSERT_EQ(cp.SelectRange(lo, hi), want_range)
          << "[" << lo << ", " << hi << ") of " << p->ToString();
    }

    // Scalar paths: compiled MatchesRow and Predicate::Matches.
    for (size_t r = 0; r < n; r += 3) {
      ASSERT_EQ(cp.MatchesRow(r), want[r] != 0) << p->ToString();
      ASSERT_OK_AND_ASSIGN(bool m, p->Matches(t, r));
      ASSERT_EQ(m, want[r] != 0) << "Matches row " << r << " " << p->ToString();
    }

    // Compatibility shim.
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> shim, p->Evaluate(t));
    ASSERT_EQ(shim, mask) << p->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz, testing::Range(0, 8));

// Masked-vs-unmasked executor parity: ExecuteExact with a WHERE clause must
// equal ExecuteExact without it over the physically pre-filtered table.
class MaskedParityFuzz : public testing::TestWithParam<int> {};

TEST_P(MaskedParityFuzz, MaskedEqualsPrefiltered) {
  Table t = MakeKernelFuzzTable(5100 + GetParam(), 400);
  Rng rng(7100 + GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    QuerySpec q;
    q.group_by = rng.NextBernoulli(0.5) ? std::vector<std::string>{"s"}
                                        : std::vector<std::string>{"s", "i"};
    q.aggregates = {AggSpec::Avg("v"), AggSpec::Count(),
                    AggSpec::CountIf(RandomRefPred(&rng, 1).Build()),
                    AggSpec::Median("v")};
    q.where = RandomRefPred(&rng, 2).Build();

    ASSERT_OK_AND_ASSIGN(CompiledPredicate cp,
                         CompiledPredicate::Compile(t, *q.where));
    Table filtered = t.TakeRows(cp.Select());
    QuerySpec unmasked = q;
    unmasked.where = nullptr;

    ASSERT_OK_AND_ASSIGN(QueryResult masked, ExecuteExact(t, q));
    ASSERT_OK_AND_ASSIGN(QueryResult plain, ExecuteExact(filtered, unmasked));
    ASSERT_EQ(masked.num_groups(), plain.num_groups()) << q.ToString();
    for (size_t i = 0; i < masked.num_groups(); ++i) {
      const auto j = plain.FindByLabel(masked.label(i));
      ASSERT_TRUE(j.has_value()) << masked.label(i) << " " << q.ToString();
      for (size_t a = 0; a < q.aggregates.size(); ++a) {
        EXPECT_NEAR(masked.value(i, a), plain.value(*j, a),
                    1e-9 * std::max(1.0, std::fabs(plain.value(*j, a))))
            << q.ToString() << " group " << masked.label(i) << " agg " << a;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedParityFuzz, testing::Range(0, 6));

// ------------------------------------------------------- NaN semantics

Table MakeNanTable() {
  Schema schema({{"g", DataType::kString}, {"x", DataType::kDouble}});
  TableBuilder b(schema);
  const double xs[] = {1.0, kNaN, 2.0, kNaN, 3.0};
  for (double x : xs) {
    Status st = b.AppendRow({Value("a"), Value(x)});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

size_t Count(const Table& t, const PredicatePtr& p) {
  auto mask = p->Evaluate(t);
  CVOPT_CHECK(mask.ok(), "evaluate failed");
  size_t n = 0;
  for (uint8_t b : *mask) n += b;
  return n;
}

TEST(NanSemanticsTest, NanRowsMatchNothingIncludingNe) {
  Table t = MakeNanTable();
  EXPECT_EQ(Count(t, Predicate::Compare("x", CompareOp::kNe, 2.0)), 2u);
  EXPECT_EQ(Count(t, Predicate::Compare("x", CompareOp::kEq, 2.0)), 1u);
  EXPECT_EQ(Count(t, Predicate::Compare("x", CompareOp::kLt, 10.0)), 3u);
  EXPECT_EQ(Count(t, Predicate::Compare("x", CompareOp::kGe, 0.0)), 3u);
  EXPECT_EQ(Count(t, Predicate::Between("x", 0.0, 10.0)), 3u);
  // Scalar path agrees on the NaN rows.
  auto ne = Predicate::Compare("x", CompareOp::kNe, 2.0);
  ASSERT_OK_AND_ASSIGN(bool m1, ne->Matches(t, 1));
  EXPECT_FALSE(m1);
}

TEST(NanSemanticsTest, NanLiteralsAndBoundsMatchNothing) {
  Table t = MakeNanTable();
  EXPECT_EQ(Count(t, Predicate::Compare("x", CompareOp::kNe, kNaN)), 0u);
  EXPECT_EQ(Count(t, Predicate::Compare("x", CompareOp::kEq, kNaN)), 0u);
  EXPECT_EQ(Count(t, Predicate::Between("x", kNaN, 10.0)), 0u);
  EXPECT_EQ(Count(t, Predicate::Between("x", 0.0, kNaN)), 0u);
}

TEST(NanSemanticsTest, InListWithNanIsSafeAndNanRowsNeverMatch) {
  Table t = MakeNanTable();
  // NaN in the values list used to feed std::sort a non-strict-weak order
  // (UB) and NaN rows used to "match" any non-empty list via binary_search.
  EXPECT_EQ(Count(t, Predicate::In("x", {Value(kNaN), Value(2.0), Value(1.0),
                                         Value(kNaN)})),
            2u);
  EXPECT_EQ(Count(t, Predicate::In("x", {Value(kNaN)})), 0u);
  auto p = Predicate::In("x", {Value(kNaN), Value(3.0)});
  ASSERT_OK_AND_ASSIGN(bool nan_row, p->Matches(t, 1));
  EXPECT_FALSE(nan_row);
  ASSERT_OK_AND_ASSIGN(bool three_row, p->Matches(t, 4));
  EXPECT_TRUE(three_row);
}

TEST(NanSemanticsTest, ExactInt64ComparisonsBeyondDoublePrecision) {
  Schema schema({{"i", DataType::kInt64}});
  TableBuilder b(schema);
  const int64_t two53 = int64_t{1} << 53;
  for (int64_t v : {two53, two53 + 1, two53 - 1}) {
    ASSERT_OK(b.AppendRow({Value(v)}));
  }
  Table t = std::move(b).Finish();
  // (double)(2^53 + 1) == (double)2^53; the int-domain kernels must not
  // conflate them.
  EXPECT_EQ(Count(t, Predicate::Compare("i", CompareOp::kEq,
                                        static_cast<double>(two53))),
            1u);
  EXPECT_EQ(Count(t, Predicate::Compare("i", CompareOp::kGt, two53)), 1u);
  EXPECT_EQ(Count(t, Predicate::In("i", {Value(two53 + 1)})), 1u);
}

// ------------------------------------------- SIMD-vs-scalar parity fuzz

// Forces the scalar kernels for a scope, restoring auto-detection on exit.
class ScopedScalarKernels {
 public:
  ScopedScalarKernels() { simd::SetEnabledForTesting(0); }
  ~ScopedScalarKernels() { simd::SetEnabledForTesting(1); }
};

// Table whose double column concentrates the lanes the vector compares
// must get right: NaN, +0.0 vs -0.0, denormals, infinities; the int column
// mixes small values with both int64 extremes.
Table MakeSimdEdgeTable(uint64_t seed, size_t rows) {
  Schema schema({{"s", DataType::kString},
                 {"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng rng(seed);
  const char* cats[] = {"a", "bb", "c"};
  const double edge[] = {kNaN,   0.0,  -0.0, 5e-324, -5e-324,
                         kInf,   -kInf, 1e300, -1e300};
  const int64_t iedge[] = {0, -1, 1, std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  for (size_t r = 0; r < rows; ++r) {
    const double dv = rng.NextBernoulli(0.4) ? edge[rng.Uniform(9)]
                                             : rng.UniformDouble(-4, 4);
    const int64_t iv = rng.NextBernoulli(0.2)
                           ? iedge[rng.Uniform(5)]
                           : static_cast<int64_t>(rng.Uniform(16)) - 8;
    Status st = b.AppendRow({Value(cats[rng.Uniform(3)]), Value(iv),
                             Value(dv), Value(rng.UniformDouble(0, 10))});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

// Every predicate entry point, evaluated twice — scalar kernels forced,
// then auto (vector where the host supports it) — must produce identical
// bytes and identical selection vectors: same rows, same order. The sweep
// covers unaligned range bases (all 8 start offsets), ragged tails (a
// prime row count), all-match and no-match predicates, and the NaN /
// signed-zero / denormal lanes baked into the table. On hosts without a
// vector backend both passes are scalar and the test degenerates to
// self-consistency.
class SimdScalarParityFuzz : public testing::TestWithParam<int> {};

TEST_P(SimdScalarParityFuzz, EntryPointsBitIdentical) {
  Table t = MakeSimdEdgeTable(6100 + GetParam(), 997);  // prime: ragged tail
  const size_t n = t.num_rows();
  Rng rng(8300 + GetParam());

  std::vector<PredicatePtr> preds;
  for (int trial = 0; trial < 12; ++trial) {
    preds.push_back(RandomRefPred(&rng, 2).Build());
  }
  // Degenerate selectivities: every row, and no row.
  preds.push_back(Predicate::Between("i", std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max()));
  preds.push_back(Predicate::Compare("v", CompareOp::kLt, -1.0));

  for (const PredicatePtr& p : preds) {
    ASSERT_OK_AND_ASSIGN(CompiledPredicate cp,
                         CompiledPredicate::Compile(t, *p));
    std::vector<std::pair<size_t, size_t>> ranges;
    for (int k = 0; k < 4; ++k) ranges.push_back(RandomRange(&rng, n));

    struct Capture {
      std::vector<std::vector<uint8_t>> masks;
      std::vector<std::vector<uint32_t>> sels;
    };
    auto run = [&]() {
      Capture c;
      for (size_t off = 0; off < 8; ++off) {
        std::vector<uint8_t> mask(n - off);
        cp.EvalMaskRange(off, n, mask.data());
        c.masks.push_back(std::move(mask));
        c.sels.push_back(cp.SelectRange(off, n - off));
      }
      c.sels.push_back(cp.Select());
      // Random unaligned bounds on both ends.
      for (const auto& [lo, hi] : ranges) {
        std::vector<uint8_t> sub(hi - lo);
        cp.EvalMaskRange(lo, hi, sub.data());
        c.masks.push_back(std::move(sub));
        c.sels.push_back(cp.SelectRange(lo, hi));
      }
      return c;
    };

    Capture scalar;
    {
      ScopedScalarKernels force_scalar;
      scalar = run();
    }
    const Capture vec = run();
    ASSERT_EQ(scalar.masks.size(), vec.masks.size());
    for (size_t j = 0; j < scalar.masks.size(); ++j) {
      ASSERT_EQ(scalar.masks[j], vec.masks[j])
          << "mask " << j << " of " << p->ToString();
    }
    ASSERT_EQ(scalar.sels.size(), vec.sels.size());
    for (size_t j = 0; j < scalar.sels.size(); ++j) {
      ASSERT_EQ(scalar.sels[j], vec.sels[j])
          << "selection " << j << " of " << p->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdScalarParityFuzz, testing::Range(0, 6));

// ------------------------------------------------ streaming filter path

TEST(StreamingFilterTest, SharedPredicateFiltersTheStream) {
  Table t = MakeKernelFuzzTable(42, 3000);
  auto where = Predicate::Compare("i", CompareOp::kGe, 0);
  QuerySpec q1;
  q1.group_by = {"s"};
  q1.aggregates = {AggSpec::Avg("v")};
  q1.where = where;
  QuerySpec q2 = q1;  // same predicate object => filter applies
  q2.aggregates = {AggSpec::Count()};

  Rng rng(17);
  StreamingCvoptSampler sampler(500);
  ASSERT_OK_AND_ASSIGN(StratifiedSample sample,
                       sampler.Build(t, {q1, q2}, 200, &rng));
  ASSERT_GT(sample.size(), 0u);
  ASSERT_OK_AND_ASSIGN(CompiledPredicate cp,
                       CompiledPredicate::Compile(t, *where));
  for (uint32_t row : sample.rows()) {
    EXPECT_TRUE(cp.MatchesRow(row)) << "sampled a filtered-out row " << row;
  }

  // Distinct predicate objects disable the filter: the stream stays whole,
  // so the sample can (and with this seed does) contain non-matching rows.
  QuerySpec q3 = q1;
  q3.where = Predicate::Compare("i", CompareOp::kGe, 0);  // equal, not same
  Rng rng2(17);
  ASSERT_OK_AND_ASSIGN(StratifiedSample unfiltered,
                       sampler.Build(t, {q1, q3}, 200, &rng2));
  ASSERT_GT(unfiltered.size(), 0u);
}

}  // namespace
}  // namespace cvopt
