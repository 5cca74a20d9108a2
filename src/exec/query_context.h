// QueryContext: the per-query governance layer — a wall-clock deadline, a
// cooperative cancellation token, and a hierarchical memory budget — carried
// through every long-running engine loop so no query can run, or allocate,
// unboundedly. This is the substrate the AqpServer admission-control work
// builds on: a server installs one context per request (optionally charging
// a shared per-tenant MemoryBudget) and gets typed kDeadlineExceeded /
// kCancelled / kResourceExhausted failures out of the engine instead of
// unbounded execution.
//
// Threading model. A context is installed for the duration of a query with
// ScopedQueryContext (thread-local); the morsel scheduler re-installs the
// submitting thread's context on every pool worker task, so governance
// checks inside morsels see the right context without any signature churn.
// Checks are amortized per MORSEL / storage chunk / stratum — never per
// row — so the governed fast path costs a couple of relaxed atomic loads
// per morsel and stays within bench noise of the ungoverned path.
//
// Propagation model. Serial engine code calls ctx->Check() /
// ctx->TryReserve() and returns the Status directly. Code running under the
// pool (whose loop bodies return void) throws QueryAbortedError instead;
// the pool already routes the first exception of a batch out of
// ParallelFor after every in-flight morsel has checked out (no deadlock,
// siblings early-exit at their next morsel boundary), and the governed
// entry points catch it with GovernedSection and convert back to Status —
// no exception ever crosses a public API boundary.
//
// Determinism contract. Installing a context never changes chunk counts,
// morsel boundaries, merge order, or RNG consumption: a governed query that
// finishes within its budgets is bit-identical to the ungoverned run at
// every thread count.
#ifndef CVOPT_EXEC_QUERY_CONTEXT_H_
#define CVOPT_EXEC_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace cvopt {

/// Hierarchical working-memory budget: TryCharge walks the parent chain
/// (child caps a single query, parent caps e.g. a tenant), charging each
/// level atomically and rolling back on any level's refusal. A default
/// budget (limit 0) is unlimited. Charges track the *working set* of
/// governed operations — reservations are released when the operation's
/// scope ends, so `used` is current, not cumulative.
class MemoryBudget {
 public:
  MemoryBudget() = default;
  explicit MemoryBudget(uint64_t limit_bytes, MemoryBudget* parent = nullptr)
      : limit_(limit_bytes), parent_(parent) {}

  uint64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  /// High-water mark of used() over the budget's lifetime.
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// True when the charge fit under this limit and every ancestor's; on
  /// refusal no level retains any part of the charge.
  bool TryCharge(uint64_t bytes);
  void Uncharge(uint64_t bytes);

  /// Reconfigures limit and parent. Call before the query starts issuing
  /// charges (outstanding reservations keep their original accounting).
  void Reset(uint64_t limit_bytes, MemoryBudget* parent) {
    limit_.store(limit_bytes, std::memory_order_relaxed);
    parent_ = parent;
  }

 private:
  std::atomic<uint64_t> limit_{0};  // 0 = unlimited
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  MemoryBudget* parent_ = nullptr;
};

class GroupIndex;
class QueryContext;
class Table;

/// Exception used to propagate a governance abort (deadline, cancellation,
/// memory exhaustion, or an injected fault) out of void-returning morsel
/// bodies through the pool. Caught and converted back to Status at governed
/// entry points (GovernedSection); never escapes the library.
class QueryAbortedError : public std::exception {
 public:
  explicit QueryAbortedError(Status status) : status_(std::move(status)) {}
  const Status& status() const { return status_; }
  const char* what() const noexcept override { return "query aborted"; }

 private:
  Status status_;
};

/// RAII working-memory reservation against a context's budget. Releases on
/// destruction; move-only. A default-constructed reservation holds nothing.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  MemoryReservation(QueryContext* ctx, uint64_t bytes)
      : ctx_(ctx), bytes_(bytes) {}
  MemoryReservation(MemoryReservation&& o) noexcept
      : ctx_(o.ctx_), bytes_(o.bytes_) {
    o.ctx_ = nullptr;
    o.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& o) noexcept {
    if (this != &o) {
      Release();
      ctx_ = o.ctx_;
      bytes_ = o.bytes_;
      o.ctx_ = nullptr;
      o.bytes_ = 0;
    }
    return *this;
  }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  ~MemoryReservation() { Release(); }

  uint64_t bytes() const { return bytes_; }
  void Release();

 private:
  QueryContext* ctx_ = nullptr;
  uint64_t bytes_ = 0;
};

/// Per-query governance state. Thread-safe: the owner configures it before
/// the query, any thread may Cancel() it, and engine threads poll Check()
/// at morsel boundaries.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  QueryContext() = default;

  // --- configuration (before or during the query) -------------------------

  /// Absolute wall-clock deadline; queries abort with kDeadlineExceeded at
  /// the next morsel boundary after it passes.
  void set_deadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }
  /// Convenience: deadline = now + timeout.
  void set_timeout(std::chrono::nanoseconds timeout) {
    set_deadline(Clock::now() + timeout);
  }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  /// Caps this query's working memory; pass a parent to also charge a
  /// shared (e.g. per-tenant) budget. The parent must outlive the context.
  void set_memory_limit(uint64_t bytes, MemoryBudget* parent = nullptr) {
    budget_.Reset(bytes, parent);
  }

  /// Configures this context as one request's child of a serving-side
  /// governance hierarchy in one call: deadline = now + `timeout` (zero or
  /// negative leaves the deadline unset), a per-request working-memory cap
  /// carved from `parent` (typically a per-tenant budget itself parented to
  /// the server-wide budget; memory_limit_bytes = 0 keeps the request
  /// uncapped while still charging the ancestors), and the partial-answer
  /// policy. Call before installing the context; `parent` must outlive it.
  void InitForRequest(std::chrono::nanoseconds timeout,
                      uint64_t memory_limit_bytes, MemoryBudget* parent,
                      bool allow_partial = false);
  const MemoryBudget& budget() const { return budget_; }
  MemoryBudget* mutable_budget() { return &budget_; }

  /// Opt into graceful degradation: where the engine can return an honest
  /// partial answer (e.g. a stratified draw cut short by the deadline with
  /// the shortfall flagged), it does so instead of failing the query.
  void set_allow_partial(bool allow) {
    allow_partial_.store(allow, std::memory_order_relaxed);
  }
  bool allow_partial() const {
    return allow_partial_.load(std::memory_order_relaxed);
  }

  // --- cancellation -------------------------------------------------------

  /// Cooperative: running morsels finish, siblings stop at their next
  /// morsel boundary, and the query returns kCancelled.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // --- engine-side checks -------------------------------------------------

  /// OK, kCancelled, or kDeadlineExceeded. Cost: one relaxed load, plus a
  /// clock read only when a deadline is set. Called at morsel / chunk /
  /// stratum boundaries, never per row.
  Status Check() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    const int64_t ddl = deadline_ns_.load(std::memory_order_relaxed);
    if (ddl != 0 && Clock::now().time_since_epoch().count() > ddl) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  /// Reserves `bytes` of working memory for the current operation,
  /// kResourceExhausted if it does not fit. `what` names the allocation in
  /// the error message.
  Result<MemoryReservation> TryReserve(uint64_t bytes, const char* what);

  /// Total Check() calls answered (governance observability; relaxed).
  uint64_t checks_performed() const {
    return checks_.load(std::memory_order_relaxed);
  }
  void CountCheck() const { checks_.fetch_add(1, std::memory_order_relaxed); }

  // --- per-request sharing ------------------------------------------------

  /// One-slot memo of the last full-table GroupIndex built under this
  /// context (GroupIndex::BuildShared). The queries of one request batch
  /// often group one table by the same columns (an exact query and the
  /// sample build of its approximate twin), and share one build through
  /// it. Keyed by the table's id and the grouping column indices, and by
  /// the table's address too: an index reads its table through a pointer,
  /// and a moved table keeps its id. The slot holds the index's row->group
  /// reservation beside it, so the budget counts the index while the slot
  /// does; both are freed with the context or by the next remember.
  /// Thread-safe. Find returns null on a miss.
  std::shared_ptr<const GroupIndex> FindGroupIndex(
      const Table& table, const std::vector<size_t>& cols) const;
  void RememberGroupIndex(const Table& table, std::vector<size_t> cols,
                          std::shared_ptr<const GroupIndex> index,
                          MemoryReservation reservation) const;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> allow_partial_{false};
  std::atomic<int64_t> deadline_ns_{0};  // steady-clock ns since epoch; 0=none
  MemoryBudget budget_;
  mutable std::atomic<uint64_t> checks_{0};
  // The group-index memo; mutable like the check counter, since engine
  // code sees the ambient context as const.
  mutable std::mutex memo_mu_;
  mutable uint64_t memo_table_id_ = 0;
  mutable const Table* memo_table_ = nullptr;
  mutable std::vector<size_t> memo_cols_;
  mutable std::shared_ptr<const GroupIndex> memo_index_;
  // Declared after budget_, so it is released before budget_ is destroyed.
  mutable MemoryReservation memo_reservation_;
};

/// The context governing the current thread's work, nullptr when ungoverned.
/// Pool workers inherit the submitting thread's context for each task.
const QueryContext* CurrentQueryContext();

/// Installs `ctx` as the current thread's context for the scope (nullptr
/// uninstalls). Nestable; restores the previous context on destruction.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(const QueryContext* ctx);
  ~ScopedQueryContext();
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  const QueryContext* previous_;
};

/// Checks the ambient context and throws QueryAbortedError on deadline /
/// cancellation — the morsel-boundary check for code running under the pool
/// (or inside a governed section generally). No-op when ungoverned.
void CheckQueryAbortedOrThrow();

/// Status-returning twin for serial code: OK when ungoverned.
Status CheckQueryAborted();

/// Reserves working memory against the ambient context, throwing
/// QueryAbortedError(kResourceExhausted) when it does not fit. Returns an
/// empty (free) reservation when ungoverned or no budget is set.
MemoryReservation ReserveMemoryOrThrow(uint64_t bytes, const char* what);

/// Runs `fn` (typically the body of a governed entry point returning
/// Result<T> or Status) and converts an escaping QueryAbortedError into its
/// Status — the one place governance exceptions become values again.
template <typename F>
auto GovernedSection(F&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const QueryAbortedError& e) {
    return e.status();
  }
}

}  // namespace cvopt

#endif  // CVOPT_EXEC_QUERY_CONTEXT_H_
