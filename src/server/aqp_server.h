// AqpServer: the concurrent serving front end over the AQP engine. Accepts
// batched query requests on an AF_UNIX stream socket (src/server/protocol.h)
// and runs each batch on the reader thread of the connection it arrived on
//
//   acceptor -> readers that execute their own batches under N slots
//   (admit -> slot -> parse + catalog lookup -> execute -> respond)
//
// with no thread hand-off. A reader that finds all num_workers slots busy
// waits for one in FIFO order, so a slow query holds one slot and its own
// connection, never the other readers, the metrics scrape, or admission.
// Batches pipelined on one connection run one after another (AqpClient is
// synchronous and never pipelines).
//
// Governance. Every batch runs under a child QueryContext
// (QueryContext::InitForRequest): deadline = request timeout, working
// memory capped per request and charged through the per-tenant budget. The
// engine's typed aborts (kDeadlineExceeded / kCancelled /
// kResourceExhausted) come back as per-query response statuses — the server
// keeps serving.
//
// Admission control. Two caps, both rejecting with kResourceExhausted
// before any work starts: the bounded wait for a slot (at most max_queue
// batches wait), and the server-wide in-flight memory budget — each
// admitted batch pessimistically charges its declared per-request memory
// cap until its response is written, so the sum of admitted caps never
// exceeds memory_limit_bytes.
//
// Serving fast path. Approximate queries resolve through the shared
// SampleCatalog: a hit answers from the published sample in microseconds
// (ExecuteApprox over a few thousand rows); a miss builds under the
// requesting batch's budget and publishes for every later session.
#ifndef CVOPT_SERVER_AQP_SERVER_H_
#define CVOPT_SERVER_AQP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/query_context.h"
#include "src/server/metrics.h"
#include "src/server/protocol.h"
#include "src/server/sample_catalog.h"
#include "src/table/table.h"

namespace cvopt {

struct ServerOptions {
  /// AF_UNIX socket path to listen on (required; unlinked on Stop).
  std::string socket_path;
  /// Execution slots: at most this many batches execute at once, each on
  /// its connection's reader thread; intra-query parallelism comes from the
  /// shared morsel pool underneath. Values below 1 mean 1.
  int num_workers = 2;
  /// Batches that may wait for a slot while every slot is busy; one more
  /// is rejected (admission control).
  size_t max_queue = 64;
  /// Concurrent client connections; further connects are closed.
  size_t max_connections = 64;
  /// Server-wide in-flight memory cap: the sum of admitted batches'
  /// per-request caps never exceeds this.
  uint64_t memory_limit_bytes = 512ull << 20;
  /// Per-tenant working-memory cap (budgets created on first use).
  uint64_t tenant_memory_limit_bytes = 256ull << 20;
  /// Default per-request cap when the request declares none.
  uint64_t request_memory_limit_bytes = 64ull << 20;
  /// Default batch deadline when the request declares none; 0 = none.
  uint32_t default_timeout_ms = 0;
  /// Catalog sample rate when a query declares none.
  double default_sample_rate = 0.05;
  /// Seed of the catalog's deterministic per-key build streams.
  uint64_t catalog_seed = 42;
};

class AqpServer {
 public:
  explicit AqpServer(ServerOptions options);
  ~AqpServer();
  AqpServer(const AqpServer&) = delete;
  AqpServer& operator=(const AqpServer&) = delete;

  /// Registers a table under the name SQL queries use in FROM. Call before
  /// Start; the table must outlive the server.
  Status RegisterTable(const std::string& name, const Table* table);

  /// Binds, listens, and spawns the acceptor thread.
  Status Start();

  /// Blocks until a client kShutdown request (or Stop from another thread),
  /// then tears down. Convenience for main()-style owners.
  void Wait();

  /// Stops accepting, lets every executing and waiting batch finish and
  /// write its response, then shuts the connections down and joins every
  /// thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  const ServerOptions& options() const { return options_; }
  const ServerMetrics& metrics() const { return metrics_; }
  SampleCatalog& catalog() { return catalog_; }
  const MemoryBudget& admission_budget() const { return admission_budget_; }

  /// Counters + histograms + server gauges in Prometheus text format (what
  /// the kMetrics protocol message returns).
  std::string RenderMetrics() const;

  /// Test hook: withholds execution slots so the bounded wait fills
  /// deterministically (admission tests); a stopping server ignores it.
  void PauseWorkersForTesting(bool paused);

 private:
  void AcceptLoop();
  /// Reads, executes and answers one connection's frames; the fd is read,
  /// written and closed by this thread alone.
  void ConnectionLoop(int fd);
  /// Admission decision for one decoded batch, on its reader thread: run it
  /// under an execution slot, or write the typed rejection.
  void AdmitOrReject(int fd, const RequestEnvelope& req);
  /// Claims an execution slot, waiting FIFO behind earlier waiters when
  /// none is free; kResourceExhausted when max_queue batches already wait.
  Status AcquireSlot();
  /// Hands free slots to the oldest waiters, a stopping server ignoring
  /// the test pause. Requires slots_mu_.
  void GrantSlotsLocked();
  void ProcessBatch(int fd, const RequestEnvelope& req, uint64_t admitted);
  QueryResponseItem ServeQuery(const QueryRequestItem& item,
                               const QueryContext& ctx);
  void WriteResponse(int fd, const ResponseEnvelope& resp);
  MemoryBudget* TenantBudget(const std::string& tenant);

  const ServerOptions options_;
  std::map<std::string, const Table*> tables_;

  ServerMetrics metrics_;
  SampleCatalog catalog_;
  /// Admission ledger: per-request caps of in-flight batches.
  MemoryBudget admission_budget_;
  std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<MemoryBudget>> tenant_budgets_;

  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stop_requested_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  // Execution slots. A batch queues as a waiter; a freed slot passes
  // straight to the oldest waiter, and only that waiter wakes.
  struct SlotWaiter {
    std::condition_variable cv;
    bool granted = false;
  };
  mutable std::mutex slots_mu_;
  int busy_slots_ = 0;
  std::deque<SlotWaiter*> waiters_;
  bool slots_paused_ = false;
  std::condition_variable drained_cv_;  // no slot busy, no waiter

  std::mutex conns_mu_;
  std::vector<int> conns_;  // open connection fds

  std::thread acceptor_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace cvopt

#endif  // CVOPT_SERVER_AQP_SERVER_H_
