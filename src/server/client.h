// AqpClient: blocking client for the AqpServer wire protocol. One client
// owns one connection; requests on a single client are serialized (one
// frame out, one frame in). For concurrency, open one client per thread —
// the server runs each connection's batches on that connection's thread.
#ifndef CVOPT_SERVER_CLIENT_H_
#define CVOPT_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/server/protocol.h"

namespace cvopt {

class AqpClient {
 public:
  AqpClient() = default;
  ~AqpClient();
  AqpClient(const AqpClient&) = delete;
  AqpClient& operator=(const AqpClient&) = delete;

  /// Connects to the server's AF_UNIX socket.
  Status Connect(const std::string& socket_path);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Per-request governance knobs; zero values pick the server defaults.
  struct Options {
    std::string tenant;
    uint32_t timeout_ms = 0;
    uint64_t memory_limit_bytes = 0;
  };

  /// Sends one query batch and blocks for its response. The returned
  /// envelope carries one QueryResponseItem per query, in order; per-query
  /// failures (typed governance aborts included) live in those statuses,
  /// while the outer Status covers transport and protocol failures only.
  Result<ResponseEnvelope> Query(const std::vector<QueryRequestItem>& queries,
                                 const Options& options);
  Result<ResponseEnvelope> Query(const std::vector<QueryRequestItem>& queries) {
    return Query(queries, Options());
  }

  /// Scrapes the server's metrics (Prometheus text format).
  Result<std::string> Metrics();

  /// Asks the server to shut down; returns once the server acknowledges.
  Status RequestShutdown();

 private:
  Result<ResponseEnvelope> RoundTrip(const RequestEnvelope& req);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
};

}  // namespace cvopt

#endif  // CVOPT_SERVER_CLIENT_H_
