#include "src/exec/query_context.h"

#include "src/table/table.h"
#include "src/util/string_util.h"

namespace cvopt {

namespace {
thread_local const QueryContext* tls_query_context = nullptr;
}  // namespace

bool MemoryBudget::TryCharge(uint64_t bytes) {
  if (bytes == 0) return true;
  const uint64_t limit = limit_.load(std::memory_order_relaxed);
  if (limit != 0) {
    uint64_t used = used_.load(std::memory_order_relaxed);
    while (true) {
      if (used + bytes > limit) return false;
      if (used_.compare_exchange_weak(used, used + bytes,
                                      std::memory_order_relaxed)) {
        break;
      }
    }
  } else {
    used_.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (parent_ != nullptr && !parent_->TryCharge(bytes)) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    return false;
  }
  // Track the high-water mark (monotonic CAS; ties/races keep the max).
  uint64_t now_used = used_.load(std::memory_order_relaxed);
  uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (now_used > peak &&
         !peak_.compare_exchange_weak(peak, now_used,
                                      std::memory_order_relaxed)) {
  }
  return true;
}

void MemoryBudget::Uncharge(uint64_t bytes) {
  if (bytes == 0) return;
  used_.fetch_sub(bytes, std::memory_order_relaxed);
  if (parent_ != nullptr) parent_->Uncharge(bytes);
}

void MemoryReservation::Release() {
  if (ctx_ != nullptr && bytes_ != 0) {
    ctx_->mutable_budget()->Uncharge(bytes_);
  }
  ctx_ = nullptr;
  bytes_ = 0;
}

Result<MemoryReservation> QueryContext::TryReserve(uint64_t bytes,
                                                   const char* what) {
  if (!budget_.TryCharge(bytes)) {
    return Status::ResourceExhausted(StrFormat(
        "memory budget exceeded reserving %llu bytes for %s "
        "(used %llu of %llu)",
        static_cast<unsigned long long>(bytes), what,
        static_cast<unsigned long long>(budget_.used()),
        static_cast<unsigned long long>(budget_.limit())));
  }
  return MemoryReservation(this, bytes);
}

void QueryContext::InitForRequest(std::chrono::nanoseconds timeout,
                                  uint64_t memory_limit_bytes,
                                  MemoryBudget* parent, bool allow_partial) {
  if (timeout.count() > 0) set_timeout(timeout);
  set_memory_limit(memory_limit_bytes, parent);
  set_allow_partial(allow_partial);
}

std::shared_ptr<const GroupIndex> QueryContext::FindGroupIndex(
    const Table& table, const std::vector<size_t>& cols) const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (memo_index_ == nullptr || memo_table_ != &table ||
      memo_table_id_ != table.id() || memo_cols_ != cols) {
    return nullptr;
  }
  return memo_index_;
}

void QueryContext::RememberGroupIndex(
    const Table& table, std::vector<size_t> cols,
    std::shared_ptr<const GroupIndex> index,
    MemoryReservation reservation) const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  memo_table_id_ = table.id();
  memo_table_ = &table;
  memo_cols_ = std::move(cols);
  // The previous index and its reservation are freed outside the lock.
  memo_index_.swap(index);
  std::swap(memo_reservation_, reservation);
}

const QueryContext* CurrentQueryContext() { return tls_query_context; }

ScopedQueryContext::ScopedQueryContext(const QueryContext* ctx)
    : previous_(tls_query_context) {
  tls_query_context = ctx;
}

ScopedQueryContext::~ScopedQueryContext() { tls_query_context = previous_; }

Status CheckQueryAborted() {
  const QueryContext* ctx = tls_query_context;
  if (ctx == nullptr) return Status::OK();
  ctx->CountCheck();
  return ctx->Check();
}

void CheckQueryAbortedOrThrow() {
  Status st = CheckQueryAborted();
  if (!st.ok()) throw QueryAbortedError(std::move(st));
}

MemoryReservation ReserveMemoryOrThrow(uint64_t bytes, const char* what) {
  const QueryContext* ctx = tls_query_context;
  if (ctx == nullptr) return MemoryReservation();
  // Reservations mutate only the budget's atomics; the context object is
  // logically const to the engine.
  auto* mut = const_cast<QueryContext*>(ctx);
  Result<MemoryReservation> res = mut->TryReserve(bytes, what);
  if (!res.ok()) throw QueryAbortedError(res.status());
  return std::move(res).value();
}

}  // namespace cvopt
