#include "src/server/aqp_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/estimate/approx_executor.h"
#include "src/exec/group_by_executor.h"
#include "src/sql/parser.h"
#include "src/util/string_util.h"

namespace cvopt {

namespace {

// The per-code counter of a typed governance abort; null for other codes.
Counter* AbortCounter(ServerMetrics& m, const Status& st) {
  switch (st.code()) {
    case StatusCode::kDeadlineExceeded: return &m.queries_deadline_exceeded;
    case StatusCode::kCancelled: return &m.queries_cancelled;
    case StatusCode::kResourceExhausted: return &m.queries_resource_exhausted;
    default: return nullptr;
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

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

  // 2. Drain: every executing and waiting batch (a test pause no longer
  // holds) finishes and writes its response.
  {
    std::unique_lock<std::mutex> lock(slots_mu_);
    GrantSlotsLocked();
    drained_cv_.wait(lock, [this] {
      return busy_slots_ == 0 && waiters_.empty();
    });
  }

  // 3. Unblock the readers (responses are written) and join them.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const int fd : conns_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  conn_threads_.clear();  // every reader deregistered its connection

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
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.size() >= options_.max_connections) {
        metrics_.connections_rejected.Inc();
        ::close(client);
        continue;
      }
      conns_.push_back(client);
      conn_threads_.emplace_back([this, client] { ConnectionLoop(client); });
    }
    metrics_.connections_accepted.Inc();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void AqpServer::ConnectionLoop(int fd) {
  for (;;) {
    Result<std::string> frame = ReadFrame(fd);
    if (!frame.ok()) break;  // clean close, peer failure, or Stop's shutdown
    Result<RequestEnvelope> decoded = DecodeRequest(*frame);
    if (!decoded.ok()) break;  // protocol violation: drop the connection
    RequestEnvelope req = std::move(decoded).value();
    switch (req.kind) {
      case MessageKind::kQueryBatch:
        metrics_.requests_received.Inc();
        AdmitOrReject(fd, req);
        break;
      case MessageKind::kMetrics: {
        ResponseEnvelope resp;
        resp.kind = MessageKind::kMetrics;
        resp.request_id = req.request_id;
        resp.metrics_text = RenderMetrics();
        WriteResponse(fd, resp);
        break;
      }
      case MessageKind::kShutdown: {
        ResponseEnvelope resp;
        resp.kind = MessageKind::kShutdown;
        resp.request_id = req.request_id;
        WriteResponse(fd, resp);
        {
          std::lock_guard<std::mutex> lock(stop_mu_);
          stop_requested_.store(true, std::memory_order_release);
        }
        stop_cv_.notify_all();
        break;
      }
    }
  }
  // Deregister before closing, so Stop never shuts down a reused fd.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(std::find(conns_.begin(), conns_.end(), fd));
  }
  ::close(fd);
}

void AqpServer::AdmitOrReject(int fd, const RequestEnvelope& req) {
  const auto accepted_at = std::chrono::steady_clock::now();
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
    rejection = AcquireSlot();
    if (rejection.ok()) {
      ProcessBatch(fd, req, admitted);
      metrics_.request_latency.Observe(SecondsSince(accepted_at));
      std::lock_guard<std::mutex> lock(slots_mu_);
      --busy_slots_;
      GrantSlotsLocked();
    }
    admission_budget_.Uncharge(admitted);
    if (rejection.ok()) return;
  }
  metrics_.requests_rejected.Inc();
  ResponseEnvelope resp;
  resp.kind = MessageKind::kQueryBatch;
  resp.request_id = req.request_id;
  resp.results.resize(req.queries.size());
  for (QueryResponseItem& item : resp.results) item.status = rejection;
  WriteResponse(fd, resp);
}

Status AqpServer::AcquireSlot() {
  std::unique_lock<std::mutex> lock(slots_mu_);
  SlotWaiter self;
  waiters_.push_back(&self);
  GrantSlotsLocked();
  if (self.granted) return Status::OK();
  if (waiters_.size() > options_.max_queue) {
    waiters_.pop_back();
    return Status::ResourceExhausted(StrFormat(
        "admission: request queue full (%zu pending)", waiters_.size()));
  }
  metrics_.batches_waited.Inc();
  self.cv.wait(lock, [&] { return self.granted; });
  return Status::OK();
}

void AqpServer::GrantSlotsLocked() {
  const int slots = std::max(options_.num_workers, 1);
  while (!waiters_.empty() && busy_slots_ < slots &&
         (!slots_paused_ || stopping_.load(std::memory_order_acquire))) {
    ++busy_slots_;
    waiters_.front()->granted = true;
    waiters_.front()->cv.notify_one();
    waiters_.pop_front();
  }
  if (busy_slots_ == 0 && waiters_.empty()) drained_cv_.notify_all();
}

void AqpServer::ProcessBatch(int fd, const RequestEnvelope& req,
                             uint64_t admitted) {
  QueryContext ctx;
  const uint32_t timeout_ms =
      req.timeout_ms != 0 ? req.timeout_ms : options_.default_timeout_ms;
  ctx.InitForRequest(std::chrono::milliseconds(timeout_ms), admitted,
                     TenantBudget(req.tenant));
  ScopedQueryContext scope(&ctx);

  ResponseEnvelope resp;
  resp.kind = MessageKind::kQueryBatch;
  resp.request_id = req.request_id;
  resp.results.reserve(req.queries.size());
  for (const QueryRequestItem& item : req.queries) {
    resp.results.push_back(ServeQuery(item, ctx));
  }
  WriteResponse(fd, resp);
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
  } else if (Counter* by_code = AbortCounter(metrics_, out.status)) {
    metrics_.queries_aborted.Inc();
    by_code->Inc();
  } else {
    metrics_.queries_failed.Inc();
  }
  metrics_.query_latency.Observe(SecondsSince(start));
  return out;
}

void AqpServer::WriteResponse(int fd, const ResponseEnvelope& resp) {
  std::string payload;
  EncodeResponse(resp, &payload);
  // A failed write means the client went away; its batch is already done
  // and the reader will observe the close. Nothing to do.
  (void)WriteFrame(fd, payload);
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
    std::lock_guard<std::mutex> lock(slots_mu_);
    gauge("aqp_queue_depth", "Batches waiting for an execution slot",
          waiters_.size());
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
  std::lock_guard<std::mutex> lock(slots_mu_);
  slots_paused_ = paused;
  GrantSlotsLocked();
}

}  // namespace cvopt
