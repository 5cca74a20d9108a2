#include "src/expr/predicate.h"

#include <cmath>
#include <cstring>

#include "src/expr/compare_plan.h"
#include "src/expr/compiled_predicate.h"
#include "src/util/hash.h"
#include "src/util/string_util.h"

namespace cvopt {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

PredicatePtr Predicate::Compare(std::string column, CompareOp op, Value literal) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kCompare;
  p->column_ = std::move(column);
  p->op_ = op;
  p->literal_ = std::move(literal);
  return p;
}

PredicatePtr Predicate::Between(std::string column, Value lo, Value hi) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kBetween;
  p->column_ = std::move(column);
  p->literal_ = std::move(lo);
  p->hi_ = std::move(hi);
  return p;
}

PredicatePtr Predicate::In(std::string column, std::vector<Value> values) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kIn;
  p->column_ = std::move(column);
  p->values_ = std::move(values);
  return p;
}

PredicatePtr Predicate::And(PredicatePtr a, PredicatePtr b) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kAnd;
  p->left_ = std::move(a);
  p->right_ = std::move(b);
  return p;
}

PredicatePtr Predicate::Or(PredicatePtr a, PredicatePtr b) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kOr;
  p->left_ = std::move(a);
  p->right_ = std::move(b);
  return p;
}

PredicatePtr Predicate::Not(PredicatePtr a) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kNot;
  p->left_ = std::move(a);
  return p;
}

PredicatePtr Predicate::True() {
  static PredicatePtr singleton = std::shared_ptr<Predicate>(new Predicate());
  return singleton;
}

// Thin compatibility shim: compile to the vectorized kernel plan and emit a
// byte mask. Callers that evaluate repeatedly or want selection vectors
// should use CompiledPredicate directly.
Result<std::vector<uint8_t>> Predicate::Evaluate(const Table& table) const {
  CVOPT_ASSIGN_OR_RETURN(CompiledPredicate cp,
                         CompiledPredicate::Compile(table, *this));
  std::vector<uint8_t> mask(table.num_rows());
  cp.EvalMaskRange(0, mask.size(), mask.data());
  return mask;
}

// Scalar evaluation, allocation-free. Mirrors the compiled kernels exactly
// (compare_plan.h holds the shared numeric-literal normalization); the
// differential fuzz tests pin the two paths together.
Result<bool> Predicate::Matches(const Table& table, size_t row) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCompare: {
      CVOPT_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column_));
      if (col->type() == DataType::kString) {
        if (!literal_.is_string()) {
          return Status::InvalidArgument("string column '" + column_ +
                                         "' compared to non-string literal");
        }
        if (op_ == CompareOp::kEq || op_ == CompareOp::kNe) {
          const int32_t code = col->LookupCode(literal_.AsString());
          return (col->GetCode(row) == code) == (op_ == CompareOp::kEq);
        }
        return ApplyCompare(op_, col->GetString(row), literal_.AsString());
      }
      if (literal_.is_string()) {
        return Status::InvalidArgument("numeric column '" + column_ +
                                       "' compared to string literal");
      }
      if (col->type() == DataType::kInt64) {
        const Int64ComparePlan plan = PlanInt64Compare(op_, literal_);
        switch (plan.kind) {
          case Int64ComparePlan::Kind::kConstFalse:
            return false;
          case Int64ComparePlan::Kind::kConstTrue:
            return true;
          case Int64ComparePlan::Kind::kCompare:
            return ApplyCompare(plan.op, col->GetInt(row), plan.lit);
        }
      }
      return ApplyCompareDouble(op_, col->GetDouble(row), literal_.AsDouble());
    }
    case Kind::kBetween: {
      CVOPT_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column_));
      if (col->type() == DataType::kString) {
        return Status::InvalidArgument("BETWEEN is not supported on strings");
      }
      if (literal_.is_string() || hi_.is_string()) {
        return Status::InvalidArgument("BETWEEN bounds must be numeric");
      }
      const double lo = literal_.AsDouble(), hi = hi_.AsDouble();
      if (col->type() == DataType::kInt64) {
        const Int64RangePlan plan = PlanInt64Range(lo, hi);
        if (plan.empty) return false;
        const int64_t v = col->GetInt(row);
        return v >= plan.lo && v <= plan.hi;
      }
      const double v = col->GetDouble(row);
      return v >= lo && v <= hi;  // false for NaN value or NaN bounds
    }
    case Kind::kIn: {
      CVOPT_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column_));
      if (col->type() == DataType::kString) {
        for (const auto& v : values_) {
          if (!v.is_string()) {
            return Status::InvalidArgument("IN list type mismatch on " +
                                           column_);
          }
        }
        const int32_t code = col->GetCode(row);
        for (const auto& v : values_) {
          if (col->LookupCode(v.AsString()) == code) return true;
        }
        return false;
      }
      for (const auto& v : values_) {
        if (v.is_string()) {
          return Status::InvalidArgument("IN list type mismatch on " +
                                         column_);
        }
      }
      if (col->type() == DataType::kInt64) {
        const int64_t x = col->GetInt(row);
        for (const auto& v : values_) {
          int64_t iv;
          if (TryInt64FromValue(v, &iv) && iv == x) return true;
        }
        return false;
      }
      const double x = col->GetDouble(row);
      if (x != x) return false;  // NaN matches nothing
      for (const auto& v : values_) {
        if (v.AsDouble() == x) return true;
      }
      return false;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      // Both sides evaluate so type errors surface regardless of the other
      // side's value, matching the vectorized compiler.
      CVOPT_ASSIGN_OR_RETURN(bool a, left_->Matches(table, row));
      CVOPT_ASSIGN_OR_RETURN(bool b, right_->Matches(table, row));
      return kind_ == Kind::kAnd ? (a && b) : (a || b);
    }
    case Kind::kNot: {
      CVOPT_ASSIGN_OR_RETURN(bool a, left_->Matches(table, row));
      return !a;
    }
  }
  return Status::Internal("unknown predicate kind");
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCompare:
      return column_ + " " + CompareOpToString(op_) + " " + literal_.ToString();
    case Kind::kBetween:
      return column_ + " BETWEEN " + literal_.ToString() + " AND " +
             hi_.ToString();
    case Kind::kIn: {
      std::vector<std::string> vs;
      for (const auto& v : values_) vs.push_back(v.ToString());
      return column_ + " IN (" + Join(vs, ", ") + ")";
    }
    case Kind::kAnd:
      return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
    case Kind::kNot:
      return "NOT (" + left_->ToString() + ")";
  }
  return "?";
}

namespace {

uint64_t HashString(uint64_t seed, const std::string& s) {
  uint64_t h = HashCombine(seed, s.size());
  for (char c : s) h = HashCombine(h, static_cast<uint8_t>(c));
  return h;
}

uint64_t HashValue(uint64_t seed, const Value& v) {
  uint64_t h = HashCombine(seed, static_cast<uint64_t>(v.type()));
  if (v.is_string()) return HashString(h, v.AsString());
  if (v.is_double()) {
    double d = v.AsDouble();
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d), "double is not 64-bit");
    std::memcpy(&bits, &d, sizeof(bits));
    return HashCombine(h, bits);
  }
  return HashCombine(h, static_cast<uint64_t>(v.AsInt()));
}

}  // namespace

uint64_t Predicate::Fingerprint() const {
  uint64_t h = HashCombine(0x9E3779B97F4A7C15ULL,
                           static_cast<uint64_t>(kind_));
  switch (kind_) {
    case Kind::kTrue:
      return h;
    case Kind::kCompare:
      h = HashString(h, column_);
      h = HashCombine(h, static_cast<uint64_t>(op_));
      return HashValue(h, literal_);
    case Kind::kBetween:
      h = HashString(h, column_);
      h = HashValue(h, literal_);
      return HashValue(h, hi_);
    case Kind::kIn:
      h = HashString(h, column_);
      h = HashCombine(h, values_.size());
      for (const auto& v : values_) h = HashValue(h, v);
      return h;
    case Kind::kAnd:
    case Kind::kOr:
      h = HashCombine(h, left_->Fingerprint());
      return HashCombine(h, right_->Fingerprint());
    case Kind::kNot:
      return HashCombine(h, left_->Fingerprint());
  }
  return h;
}

Result<double> Predicate::Selectivity(const Table& table) const {
  if (table.num_rows() == 0) return 0.0;
  CVOPT_ASSIGN_OR_RETURN(CompiledPredicate cp,
                         CompiledPredicate::Compile(table, *this));
  return static_cast<double>(cp.Select().size()) /
         static_cast<double>(table.num_rows());
}

}  // namespace cvopt
