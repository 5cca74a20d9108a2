// Predicate: a small expression AST for WHERE clauses, evaluated to selection
// masks over a Table. Supports the predicate forms used by the paper's
// workload: comparisons against literals, BETWEEN, IN, and AND/OR/NOT.
//
// Evaluation is vectorized: Evaluate compiles the tree into
// typed columnar kernels (see compiled_predicate.h) and run them over raw
// column storage. Hot paths that evaluate the same predicate repeatedly
// should compile once via CompiledPredicate and reuse the plan.
//
// NaN semantics: a NaN column value matches no Compare / BETWEEN / IN
// predicate — including `!=` — and a NaN literal or bound matches nothing.
#ifndef CVOPT_EXPR_PREDICATE_H_
#define CVOPT_EXPR_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/table/table.h"
#include "src/util/status.h"

namespace cvopt {

/// Comparison operators for Predicate::Compare.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

/// Immutable predicate tree. Construct via the static factories; evaluate
/// with Evaluate / Matches.
class Predicate {
 public:
  /// `column <op> literal`.
  static PredicatePtr Compare(std::string column, CompareOp op, Value literal);

  /// `column BETWEEN lo AND hi` (inclusive on both ends, as in SQL).
  static PredicatePtr Between(std::string column, Value lo, Value hi);

  /// `column IN (values...)`.
  static PredicatePtr In(std::string column, std::vector<Value> values);

  static PredicatePtr And(PredicatePtr a, PredicatePtr b);
  static PredicatePtr Or(PredicatePtr a, PredicatePtr b);
  static PredicatePtr Not(PredicatePtr a);

  /// Predicate that accepts every row.
  static PredicatePtr True();

  /// Evaluates over all rows: mask[i] == 1 iff row i satisfies the predicate.
  Result<std::vector<uint8_t>> Evaluate(const Table& table) const;

  /// Scalar evaluation of a single row. Allocation-free; resolves columns
  /// by name per call, so per-row hot loops should prefer
  /// CompiledPredicate::MatchesRow on a pre-compiled plan.
  Result<bool> Matches(const Table& table, size_t row) const;

  /// SQL-ish rendering for logs and test diagnostics.
  std::string ToString() const;

  /// Structural 64-bit fingerprint: structurally identical trees (same
  /// node kinds, columns, operators, and literals) fingerprint equal. The
  /// compiled-plan cache keys on it, using the rendered ToString() form as
  /// the collision guard.
  uint64_t Fingerprint() const;

  /// Fraction of rows selected (for experiment reporting).
  Result<double> Selectivity(const Table& table) const;

 private:
  // The kernel compiler walks the tree directly.
  friend class CompiledPredicate;

  enum class Kind { kTrue, kCompare, kBetween, kIn, kAnd, kOr, kNot };

  Predicate() = default;

  Kind kind_ = Kind::kTrue;
  std::string column_;
  CompareOp op_ = CompareOp::kEq;
  Value literal_;
  Value hi_;                      // kBetween upper bound
  std::vector<Value> values_;     // kIn
  PredicatePtr left_, right_;     // kAnd/kOr; kNot uses left_
};

}  // namespace cvopt

#endif  // CVOPT_EXPR_PREDICATE_H_
