#include "src/server/aqp_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/estimate/approx_executor.h"
#include "src/exec/group_by_executor.h"
#include "src/sql/parser.h"
#include "src/util/string_util.h"

namespace cvopt {

namespace {

bool IsGovernanceAbort(const Status& st) {
  return st.code() == StatusCode::kDeadlineExceeded ||
         st.code() == StatusCode::kCancelled ||
         st.code() == StatusCode::kResourceExhausted;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

AqpServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

AqpServer::AqpServer(ServerOptions options)
    : options_(std::move(options)),
      catalog_(options_.catalog_seed),
      admission_budget_(options_.memory_limit_bytes) {
  // Surface catalog LRU evictions in the scrape registry; the hook runs
  // under the catalog lock, so it is just the relaxed-atomic bump.
  catalog_.SetEvictionListener([this] { metrics_.catalog_evictions.Inc(); });
}

AqpServer::~AqpServer() { Stop(); }

Status AqpServer::RegisterTable(const std::string& name, const Table* table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (running()) {
    return Status::InvalidArgument("RegisterTable must precede Start");
  }
  if (!tables_.emplace(name, table).second) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  return Status::OK();
}

Status AqpServer::Start() {
  if (running()) return Status::AlreadyExists("server already started");
  if (options_.socket_path.empty()) {
    return Status::InvalidArgument("ServerOptions.socket_path is required");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long for AF_UNIX");
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a crash
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind(" + options_.socket_path +
                            "): " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }

  stopping_.store(false, std::memory_order_release);
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  const int workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void AqpServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait(lock, [this] {
      return stop_requested_.load(std::memory_order_acquire);
    });
  }
  Stop();
}

void AqpServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();

  // 1. Stop accepting (the acceptor owns and closes the listen fd).
  if (acceptor_.joinable()) acceptor_.join();

  // 2. Drain the queue: workers finish every admitted batch and write its
  // response before exiting, so no accepted client is left hanging.
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // 3. Unblock the connection readers (responses are already written) and
  // join them.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  conn_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }

  ::unlink(options_.socket_path.c_str());
  running_.store(false, std::memory_order_release);
}

void AqpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout, EINTR, or transient error
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = client;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.size() >= options_.max_connections) {
        metrics_.connections_rejected.Inc();
        continue;  // conn destructor closes the fd
      }
      conns_.push_back(conn);
      conn_threads_.emplace_back(
          [this, conn] { ConnectionLoop(std::move(conn)); });
    }
    metrics_.connections_accepted.Inc();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void AqpServer::ConnectionLoop(std::shared_ptr<Connection> conn) {
  for (;;) {
    Result<std::string> frame = ReadFrame(conn->fd);
    if (!frame.ok()) break;  // clean close, peer failure, or Stop's shutdown
    Result<RequestEnvelope> decoded = DecodeRequest(*frame);
    if (!decoded.ok()) break;  // protocol violation: drop the connection
    RequestEnvelope req = std::move(decoded).value();
    switch (req.kind) {
      case MessageKind::kQueryBatch:
        metrics_.requests_received.Inc();
        AdmitOrReject(conn, std::move(req));
        break;
      case MessageKind::kMetrics: {
        ResponseEnvelope resp;
        resp.kind = MessageKind::kMetrics;
        resp.request_id = req.request_id;
        resp.metrics_text = RenderMetrics();
        WriteResponse(conn, resp);
        break;
      }
      case MessageKind::kShutdown: {
        ResponseEnvelope resp;
        resp.kind = MessageKind::kShutdown;
        resp.request_id = req.request_id;
        WriteResponse(conn, resp);
        {
          std::lock_guard<std::mutex> lock(stop_mu_);
          stop_requested_.store(true, std::memory_order_release);
        }
        stop_cv_.notify_all();
        break;
      }
    }
  }
  // Deregister; the shared_ptr (and any queued batch's copy) keeps the fd
  // alive until the last writer is done.
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == conn.get()) {
      conns_.erase(it);
      break;
    }
  }
}

void AqpServer::AdmitOrReject(std::shared_ptr<Connection> conn,
                              RequestEnvelope req) {
  const uint64_t admitted = req.memory_limit_bytes != 0
                                ? req.memory_limit_bytes
                                : options_.request_memory_limit_bytes;
  Status rejection;
  if (!admission_budget_.TryCharge(admitted)) {
    rejection = Status::ResourceExhausted(StrFormat(
        "admission: in-flight memory cap (%llu of %llu bytes admitted)",
        static_cast<unsigned long long>(admission_budget_.used()),
        static_cast<unsigned long long>(options_.memory_limit_bytes)));
  } else {
    PendingBatch batch;
    batch.conn = conn;
    batch.request = std::move(req);
    batch.admitted_bytes = admitted;
    batch.accepted_at = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.size() >= options_.max_queue) {
        rejection = Status::ResourceExhausted(
            StrFormat("admission: request queue full (%zu pending)",
                      queue_.size()));
        req = std::move(batch.request);  // recover for the rejection reply
      } else {
        queue_.push_back(std::move(batch));
      }
    }
    if (rejection.ok()) {
      queue_cv_.notify_one();
      return;
    }
    admission_budget_.Uncharge(admitted);
  }
  metrics_.requests_rejected.Inc();
  ResponseEnvelope resp;
  resp.kind = MessageKind::kQueryBatch;
  resp.request_id = req.request_id;
  resp.results.resize(req.queries.size());
  for (QueryResponseItem& item : resp.results) item.status = rejection;
  WriteResponse(conn, resp);
}

void AqpServer::WorkerLoop() {
  for (;;) {
    PendingBatch batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        const bool stopping = stopping_.load(std::memory_order_acquire);
        return (!queue_.empty() && (!workers_paused_ || stopping)) ||
               (stopping && queue_.empty());
      });
      if (queue_.empty()) return;  // stopping and drained
      batch = std::move(queue_.front());
      queue_.pop_front();
    }
    ProcessBatch(std::move(batch));
  }
}

void AqpServer::ProcessBatch(PendingBatch batch) {
  const RequestEnvelope& req = batch.request;
  QueryContext ctx;
  const uint32_t timeout_ms =
      req.timeout_ms != 0 ? req.timeout_ms : options_.default_timeout_ms;
  ctx.InitForRequest(std::chrono::milliseconds(timeout_ms),
                     batch.admitted_bytes, TenantBudget(req.tenant));
  ScopedQueryContext scope(&ctx);

  ResponseEnvelope resp;
  resp.kind = MessageKind::kQueryBatch;
  resp.request_id = req.request_id;
  resp.results.reserve(req.queries.size());
  for (const QueryRequestItem& item : req.queries) {
    resp.results.push_back(ServeQuery(item, ctx));
  }
  WriteResponse(batch.conn, resp);
  metrics_.request_latency.Observe(SecondsSince(batch.accepted_at));
  admission_budget_.Uncharge(batch.admitted_bytes);
}

QueryResponseItem AqpServer::ServeQuery(const QueryRequestItem& item,
                                        const QueryContext& ctx) {
  const auto start = std::chrono::steady_clock::now();
  QueryResponseItem out;
  out.status = [&]() -> Status {
    // A batch whose deadline already passed fails its remaining queries
    // here rather than at the first morsel.
    CVOPT_RETURN_NOT_OK(ctx.Check());
    Result<ParsedQuery> parsed = ParseSql(item.sql);
    if (!parsed.ok()) return parsed.status();
    if (parsed->with_cube) {
      return Status::Unimplemented("WITH CUBE is not served over the wire");
    }
    const auto table_it = tables_.find(parsed->table_name);
    if (table_it == tables_.end()) {
      return Status::NotFound("no table named '" + parsed->table_name + "'");
    }
    const Table& table = *table_it->second;

    Result<QueryResult> result = Status::Internal("unreachable");
    if (item.exact) {
      out.served_from = ServedFrom::kExact;
      result = ExecuteExact(table, parsed->query);
    } else {
      const double rate = item.sample_rate != 0.0 ? item.sample_rate
                                                  : options_.default_sample_rate;
      bool hit = false;
      auto sample = catalog_.GetOrBuild(table, parsed->query, rate, &hit);
      if (hit) {
        metrics_.catalog_hits.Inc();
      } else {
        metrics_.catalog_misses.Inc();
      }
      if (!sample.ok()) {
        metrics_.sample_build_failures.Inc();
        return sample.status();
      }
      if (!hit) metrics_.sample_builds.Inc();
      out.served_from = hit ? ServedFrom::kCatalogHit : ServedFrom::kCatalogBuild;
      result = ExecuteApprox(**sample, parsed->query);
    }
    if (!result.ok()) return result.status();
    out.result = FlattenResult(*result);
    return Status::OK();
  }();

  if (out.status.ok()) {
    metrics_.queries_served.Inc();
  } else if (IsGovernanceAbort(out.status)) {
    metrics_.queries_aborted.Inc();
  } else {
    metrics_.queries_failed.Inc();
  }
  metrics_.query_latency.Observe(SecondsSince(start));
  return out;
}

void AqpServer::WriteResponse(const std::shared_ptr<Connection>& conn,
                              const ResponseEnvelope& resp) {
  std::string payload;
  EncodeResponse(resp, &payload);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // A failed write means the client went away; its batch is already done
  // and the reader will observe the close. Nothing to do.
  (void)WriteFrame(conn->fd, payload);
}

MemoryBudget* AqpServer::TenantBudget(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto& slot = tenant_budgets_[tenant];
  if (slot == nullptr) {
    slot = std::make_unique<MemoryBudget>(options_.tenant_memory_limit_bytes);
  }
  return slot.get();
}

std::string AqpServer::RenderMetrics() const {
  std::string out = metrics_.RenderPrometheus();
  const auto gauge = [&out](const char* name, const char* help, uint64_t v) {
    out += StrFormat("# HELP %s %s\n# TYPE %s gauge\n%s %llu\n", name, help,
                     name, name, static_cast<unsigned long long>(v));
  };
  {
    std::lock_guard<std::mutex> lock(
        const_cast<std::mutex&>(queue_mu_));
    gauge("aqp_queue_depth", "Batches waiting for a pipeline worker",
          queue_.size());
  }
  gauge("aqp_inflight_memory_bytes",
        "Admitted per-request memory caps currently in flight",
        admission_budget_.used());
  gauge("aqp_memory_limit_bytes", "Server-wide in-flight memory cap",
        options_.memory_limit_bytes);
  gauge("aqp_catalog_samples", "Published shared samples", catalog_.size());
  gauge("aqp_catalog_resident_rows", "Sampled rows held across samples",
        catalog_.resident_rows());
  gauge("aqp_catalog_resident_bytes",
        "Bytes held across samples: row tables, weights, group indexes",
        catalog_.resident_bytes());
  gauge("aqp_registered_tables", "Tables registered for serving",
        tables_.size());
  return out;
}

void AqpServer::PauseWorkersForTesting(bool paused) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_paused_ = paused;
  }
  queue_cv_.notify_all();
}

}  // namespace cvopt
