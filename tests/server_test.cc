// AqpServer serving tests. The load-bearing one is the differential: N
// concurrent clients hammering the served path must receive responses
// BIT-identical to direct engine calls — the wire format carries raw double
// bit patterns and the catalog's builds are deterministic functions of
// (catalog seed, key), so equality is exact, not tolerance-based. The rest
// pin the catalog-reuse contract (one shared sample answers distinct
// queries), both admission-control rejections, the execution slots (FIFO
// waits, a draining Stop), and that typed per-query failures (fail-point
// injected) never take the server down.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/estimate/approx_executor.h"
#include "src/exec/group_by_executor.h"
#include "src/sample/cvopt_sampler.h"
#include "src/server/aqp_server.h"
#include "src/server/client.h"
#include "src/server/sample_catalog.h"
#include "src/sql/parser.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

std::string TestSocketPath(const char* tag) {
  return std::string(::testing::TempDir()) + "cvopt_server_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

// Replicates the exact sample the server's catalog builds for (sql, rate):
// same canonical spec, same budget, same deterministic seed stream.
Result<StratifiedSample> ReplicateCatalogBuild(const Table& table,
                                               const std::string& sql,
                                               double rate,
                                               uint64_t catalog_seed) {
  CVOPT_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseSql(sql));
  const CatalogKey key = SampleCatalog::MakeKey(table, parsed.query, rate);
  const uint64_t budget = static_cast<uint64_t>(
      std::llround(rate * static_cast<double>(table.num_rows())));
  Rng rng(SampleCatalog::BuildSeed(catalog_seed, key));
  CvoptSampler sampler;
  return sampler.Build(table, {SampleCatalog::CanonicalSpec(parsed.query)},
                       budget, &rng);
}

void ExpectWireBitIdentical(const WireResult& got, const WireResult& want) {
  ASSERT_EQ(got.agg_labels, want.agg_labels);
  ASSERT_EQ(got.group_labels, want.group_labels);
  ASSERT_EQ(got.key_codes, want.key_codes);
  ASSERT_EQ(got.value_bits, want.value_bits);  // raw IEEE-754 bits
}

// Value of an unlabelled gauge in a Prometheus scrape (fails the test and
// returns 0 when absent).
uint64_t GaugeValue(const std::string& scrape, const std::string& name) {
  const std::string prefix = "\n" + name + " ";
  const size_t at = scrape.find(prefix);
  EXPECT_NE(at, std::string::npos) << name;
  if (at == std::string::npos) return 0;
  return std::stoull(scrape.substr(at + prefix.size()));
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : table_(MakeSkewedTable(/*groups=*/6, /*base=*/40)) {}

  // Starts a server over table_ registered as "skewed".
  void StartServer(ServerOptions options) {
    server_ = std::make_unique<AqpServer>(std::move(options));
    ASSERT_OK(server_->RegisterTable("skewed", &table_));
    ASSERT_OK(server_->Start());
  }

  Table table_;
  std::unique_ptr<AqpServer> server_;
};

TEST_F(ServerTest, StartStopIdempotent) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("startstop");
  StartServer(opts);
  EXPECT_TRUE(server_->running());
  server_->Stop();
  EXPECT_FALSE(server_->running());
  server_->Stop();  // idempotent
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, RoundTripExactAndApprox) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("roundtrip");
  StartServer(opts);

  AqpClient client;
  ASSERT_OK(client.Connect(opts.socket_path));
  std::vector<QueryRequestItem> batch(2);
  batch[0].sql = "SELECT g, AVG(v), SUM(v) FROM skewed GROUP BY g";
  batch[0].exact = true;
  batch[1].sql = "SELECT g, AVG(v), SUM(v) FROM skewed GROUP BY g";
  batch[1].sample_rate = 0.25;
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope resp, client.Query(batch));
  ASSERT_EQ(resp.results.size(), 2u);
  ASSERT_OK(resp.results[0].status);
  EXPECT_EQ(resp.results[0].served_from, ServedFrom::kExact);
  EXPECT_EQ(resp.results[0].result.num_groups(), 6u);
  EXPECT_EQ(resp.results[0].result.num_aggregates(), 2u);
  ASSERT_OK(resp.results[1].status);
  EXPECT_EQ(resp.results[1].served_from, ServedFrom::kCatalogBuild);
  EXPECT_GT(resp.results[1].result.num_groups(), 0u);
  server_->Stop();
}

// The load-bearing differential: concurrent clients, mixed exact/approx
// batches with per-request WHERE predicates, every response bit-identical
// to a direct serial engine call replicating the catalog's deterministic
// build. Each client's batches execute on its connection's reader thread
// under the server's execution slots.
void ExpectConcurrentClientsBitIdentical(const Table& table,
                                         AqpServer* server, int clients) {
  constexpr double kRate = 0.25;
  const std::string& socket_path = server->options().socket_path;

  // Three workload-class-sharing approx queries (distinct WHERE, same
  // canonical spec) + one exact.
  const std::vector<std::string> kApproxSql = {
      "SELECT g, AVG(v), SUM(v) FROM skewed GROUP BY g",
      "SELECT g, AVG(v), SUM(v) FROM skewed WHERE g < 4 GROUP BY g",
      "SELECT g, AVG(v), SUM(v) FROM skewed WHERE v > 20 GROUP BY g",
  };
  const std::string kExactSql =
      "SELECT g, AVG(v), SUM(v) FROM skewed GROUP BY g";

  constexpr int kBatchesPerClient = 3;
  std::vector<std::vector<ResponseEnvelope>> responses(clients);
  std::atomic<int> transport_failures{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        AqpClient client;
        if (!client.Connect(socket_path).ok()) {
          transport_failures.fetch_add(1);
          return;
        }
        for (int b = 0; b < kBatchesPerClient; ++b) {
          std::vector<QueryRequestItem> batch;
          for (const std::string& sql : kApproxSql) {
            QueryRequestItem item;
            item.sql = sql;
            item.sample_rate = kRate;
            batch.push_back(item);
          }
          QueryRequestItem exact;
          exact.sql = kExactSql;
          exact.exact = true;
          batch.push_back(exact);
          AqpClient::Options qopts;
          qopts.tenant = "tenant-" + std::to_string(c);
          auto resp = client.Query(batch, qopts);
          if (!resp.ok()) {
            transport_failures.fetch_add(1);
            return;
          }
          responses[c].push_back(std::move(resp).value());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_EQ(transport_failures.load(), 0);

  // Ground truth, computed serially after the fact.
  ASSERT_OK_AND_ASSIGN(
      StratifiedSample sample,
      ReplicateCatalogBuild(table, kApproxSql[0], kRate,
                            server->options().catalog_seed));
  std::vector<WireResult> want_approx;
  for (const std::string& sql : kApproxSql) {
    ASSERT_OK_AND_ASSIGN(ParsedQuery parsed, ParseSql(sql));
    ASSERT_OK_AND_ASSIGN(QueryResult direct,
                         ExecuteApprox(sample, parsed.query));
    want_approx.push_back(FlattenResult(direct));
  }
  ASSERT_OK_AND_ASSIGN(ParsedQuery exact_parsed, ParseSql(kExactSql));
  ASSERT_OK_AND_ASSIGN(QueryResult exact_direct,
                       ExecuteExact(table, exact_parsed.query));
  const WireResult want_exact = FlattenResult(exact_direct);

  for (int c = 0; c < clients; ++c) {
    ASSERT_EQ(responses[c].size(), static_cast<size_t>(kBatchesPerClient));
    for (const ResponseEnvelope& resp : responses[c]) {
      ASSERT_EQ(resp.results.size(), kApproxSql.size() + 1);
      for (size_t q = 0; q < kApproxSql.size(); ++q) {
        ASSERT_OK(resp.results[q].status);
        ExpectWireBitIdentical(resp.results[q].result, want_approx[q]);
      }
      ASSERT_OK(resp.results.back().status);
      EXPECT_EQ(resp.results.back().served_from, ServedFrom::kExact);
      ExpectWireBitIdentical(resp.results.back().result, want_exact);
    }
  }

  // Every approx query shares ONE workload class: exactly one sample was
  // built, everything else hit it.
  EXPECT_EQ(server->catalog().size(), 1u);
  EXPECT_EQ(server->catalog().builds(), 1u);
  EXPECT_GT(server->catalog().hits(), 0u);
  EXPECT_EQ(server->catalog().hits() + server->catalog().misses(),
            static_cast<uint64_t>(clients * kBatchesPerClient *
                                  kApproxSql.size()));
}

TEST_F(ServerTest, ConcurrentClientsBitIdenticalToDirectEngine) {
  ScopedExecThreads threads(4);  // server and direct calls share the pool
  ServerOptions opts;
  opts.socket_path = TestSocketPath("differential");
  opts.catalog_seed = 1234;
  opts.num_workers = 3;
  StartServer(opts);
  ExpectConcurrentClientsBitIdentical(table_, server_.get(), /*clients=*/4);
  server_->Stop();
}

// More connections than execution slots: batches wait for a slot and still
// answer bit-identically.
TEST_F(ServerTest, MoreClientsThanSlotsBitIdenticalToDirectEngine) {
  ScopedExecThreads threads(4);
  ServerOptions opts;
  opts.socket_path = TestSocketPath("overslots");
  opts.catalog_seed = 77;
  opts.num_workers = 2;
  StartServer(opts);
  ExpectConcurrentClientsBitIdentical(table_, server_.get(), /*clients=*/6);
  server_->Stop();
}

// Paper Table 5 reuse: queries with different predicates and sensible
// aggregate subsets canonicalize into one workload class — the catalog
// serves all of them from a single shared sample.
TEST_F(ServerTest, CatalogSharesOneSampleAcrossDistinctQueries) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("reuse");
  StartServer(opts);

  AqpClient client;
  ASSERT_OK(client.Connect(opts.socket_path));
  const std::vector<std::string> kSql = {
      "SELECT g, AVG(v), SUM(v) FROM skewed GROUP BY g",
      "SELECT g, AVG(v), SUM(v) FROM skewed WHERE g = 2 GROUP BY g",
      "SELECT g, AVG(v), SUM(v) FROM skewed WHERE v > 30 GROUP BY g",
  };
  std::vector<QueryRequestItem> batch;
  for (const std::string& sql : kSql) {
    QueryRequestItem item;
    item.sql = sql;
    item.sample_rate = 0.2;
    batch.push_back(item);
  }
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope resp, client.Query(batch));
  ASSERT_EQ(resp.results.size(), kSql.size());
  EXPECT_EQ(resp.results[0].served_from, ServedFrom::kCatalogBuild);
  for (size_t q = 0; q < kSql.size(); ++q) {
    ASSERT_OK(resp.results[q].status);
    if (q > 0) EXPECT_EQ(resp.results[q].served_from, ServedFrom::kCatalogHit);
  }
  EXPECT_EQ(server_->catalog().size(), 1u);       // one shared sample...
  EXPECT_EQ(server_->catalog().hits(), kSql.size() - 1);  // ...reused
  // A different rate is a different workload class: new sample.
  QueryRequestItem other;
  other.sql = kSql[0];
  other.sample_rate = 0.1;
  ASSERT_OK_AND_ASSIGN(resp, client.Query({other}));
  ASSERT_OK(resp.results[0].status);
  EXPECT_EQ(resp.results[0].served_from, ServedFrom::kCatalogBuild);
  EXPECT_EQ(server_->catalog().size(), 2u);
  server_->Stop();
}

// Declaring a per-request memory cap above the server-wide in-flight budget
// is rejected with a typed kResourceExhausted before any work is queued.
TEST_F(ServerTest, MemoryAdmissionRejectsOversizedRequest) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("memadmit");
  opts.memory_limit_bytes = 32ull << 20;
  StartServer(opts);

  AqpClient client;
  ASSERT_OK(client.Connect(opts.socket_path));
  QueryRequestItem item;
  item.sql = "SELECT g, AVG(v) FROM skewed GROUP BY g";
  item.exact = true;
  AqpClient::Options qopts;
  qopts.memory_limit_bytes = 64ull << 20;  // over the server-wide cap
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope resp, client.Query({item}, qopts));
  ASSERT_EQ(resp.results.size(), 1u);
  EXPECT_EQ(resp.results[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server_->metrics().requests_rejected.value(), 1u);
  // The rejection released its charge; a sane request still works.
  EXPECT_EQ(server_->admission_budget().used(), 0u);
  qopts.memory_limit_bytes = 8ull << 20;
  ASSERT_OK_AND_ASSIGN(resp, client.Query({item}, qopts));
  ASSERT_OK(resp.results[0].status);
  server_->Stop();
}

// With the pipeline frozen, the bounded queue fills and the next batch gets
// a typed queue-full rejection from the reader thread; unfreezing drains
// the queued batch normally.
TEST_F(ServerTest, QueueDepthAdmissionRejectsWhenFull) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("queueadmit");
  opts.max_queue = 1;
  opts.num_workers = 1;
  StartServer(opts);
  server_->PauseWorkersForTesting(true);

  QueryRequestItem item;
  item.sql = "SELECT g, AVG(v) FROM skewed GROUP BY g";
  item.exact = true;

  // First batch occupies the queue; its client blocks on the response.
  ResponseEnvelope queued_resp;
  std::atomic<bool> queued_ok{false};
  std::thread queued([&] {
    AqpClient c;
    if (!c.Connect(opts.socket_path).ok()) return;
    auto r = c.Query({item});
    if (r.ok()) {
      queued_resp = std::move(r).value();
      queued_ok.store(true);
    }
  });
  // Admission is decided on the reader thread before the response, so once
  // the queue reports depth 1 the next batch deterministically overflows.
  while (server_->RenderMetrics().find("aqp_queue_depth 1") ==
         std::string::npos) {
    std::this_thread::yield();
  }

  AqpClient overflow;
  ASSERT_OK(overflow.Connect(opts.socket_path));
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope rejected, overflow.Query({item}));
  ASSERT_EQ(rejected.results.size(), 1u);
  EXPECT_EQ(rejected.results[0].status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.results[0].status.message().find("queue"),
            std::string::npos);

  server_->PauseWorkersForTesting(false);
  queued.join();
  ASSERT_TRUE(queued_ok.load());
  ASSERT_EQ(queued_resp.results.size(), 1u);
  EXPECT_OK(queued_resp.results[0].status);
  server_->Stop();
}

// Blocks until the server reports `depth` batches waiting for a slot.
void AwaitQueueDepth(const AqpServer& server, uint64_t depth) {
  while (GaugeValue(server.RenderMetrics(), "aqp_queue_depth") != depth) {
    std::this_thread::yield();
  }
}

// A sequential client on an idle server always finds a free slot: its
// batches run straight on the reader thread and never wait.
TEST_F(ServerTest, SequentialClientNeverWaitsForASlot) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("nowait");
  opts.num_workers = 1;
  StartServer(opts);

  AqpClient client;
  ASSERT_OK(client.Connect(opts.socket_path));
  QueryRequestItem item;
  item.sql = "SELECT g, AVG(v) FROM skewed GROUP BY g";
  item.sample_rate = 0.25;
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(ResponseEnvelope resp, client.Query({item}));
    ASSERT_OK(resp.results[0].status);
  }
  EXPECT_EQ(server_->metrics().batches_waited.value(), 0u);
  ASSERT_OK_AND_ASSIGN(std::string metrics, client.Metrics());
  EXPECT_NE(metrics.find("aqp_batches_waited_total 0"), std::string::npos);
  EXPECT_EQ(GaugeValue(metrics, "aqp_queue_depth"), 0u);
  server_->Stop();
}

// With the slots withheld, batches wait in arrival order up to max_queue;
// one more is rejected. Once released, the one slot runs the waiters first
// come, first served: the first builds the shared sample, the second hits
// it.
TEST_F(ServerTest, WaitingBatchesRunInArrivalOrder) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("fifo");
  opts.max_queue = 2;
  opts.num_workers = 1;
  StartServer(opts);
  server_->PauseWorkersForTesting(true);

  QueryRequestItem item;
  item.sql = "SELECT g, AVG(v) FROM skewed GROUP BY g";
  item.sample_rate = 0.25;
  ResponseEnvelope resp[2];
  std::atomic<int> answered{0};
  const auto send = [&](int i) {
    AqpClient c;
    if (!c.Connect(opts.socket_path).ok()) return;
    auto r = c.Query({item});
    if (r.ok()) {
      resp[i] = std::move(r).value();
      answered.fetch_add(1);
    }
  };
  std::thread first(send, 0);
  AwaitQueueDepth(*server_, 1);
  std::thread second(send, 1);
  AwaitQueueDepth(*server_, 2);

  AqpClient overflow;
  ASSERT_OK(overflow.Connect(opts.socket_path));
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope rejected, overflow.Query({item}));
  ASSERT_EQ(rejected.results.size(), 1u);
  EXPECT_EQ(rejected.results[0].status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.results[0].status.message().find("queue full"),
            std::string::npos);

  server_->PauseWorkersForTesting(false);
  first.join();
  second.join();
  ASSERT_EQ(answered.load(), 2);
  ASSERT_OK(resp[0].results[0].status);
  ASSERT_OK(resp[1].results[0].status);
  EXPECT_EQ(resp[0].results[0].served_from, ServedFrom::kCatalogBuild);
  EXPECT_EQ(resp[1].results[0].served_from, ServedFrom::kCatalogHit);
  EXPECT_EQ(server_->metrics().batches_waited.value(), 2u);
  EXPECT_EQ(server_->metrics().requests_rejected.value(), 1u);
  server_->Stop();
}

// Stop from another thread drains: a batch executing and a batch waiting
// behind it (the test pause no longer holds) both write their responses
// before the connections shut down.
TEST_F(ServerTest, StopDeliversWaitingAndExecutingBatches) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("drain");
  opts.num_workers = 1;
  StartServer(opts);
  server_->PauseWorkersForTesting(true);

  QueryRequestItem item;
  item.sql = "SELECT g, AVG(v), SUM(v) FROM skewed GROUP BY g";
  item.exact = true;
  std::atomic<int> answered{0};
  const auto send = [&] {
    AqpClient c;
    if (!c.Connect(opts.socket_path).ok()) return;
    auto r = c.Query({item});
    if (r.ok() && r->results.size() == 1 && r->results[0].status.ok() &&
        r->results[0].result.num_groups() == 6u) {
      answered.fetch_add(1);
    }
  };
  std::thread first(send);
  AwaitQueueDepth(*server_, 1);
  std::thread second(send);
  AwaitQueueDepth(*server_, 2);

  std::thread stopper([&] { server_->Stop(); });
  first.join();
  second.join();
  stopper.join();
  EXPECT_EQ(answered.load(), 2);
  EXPECT_FALSE(server_->running());
}

// A fail point firing mid-request comes back as that query's typed status;
// the server (and even the same connection) keeps serving.
TEST_F(ServerTest, FailpointAbortLeavesServerServing) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("failpoint");
  StartServer(opts);

  AqpClient client;
  ASSERT_OK(client.Connect(opts.socket_path));
  QueryRequestItem item;
  item.sql = "SELECT g, AVG(v), SUM(v) FROM skewed GROUP BY g";
  item.exact = true;

  ASSERT_OK(failpoint::SetForTesting("exec.groupby.alloc:deadline"));
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope resp, client.Query({item}));
  failpoint::ClearForTesting();
  ASSERT_EQ(resp.results.size(), 1u);
  EXPECT_EQ(resp.results[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server_->metrics().queries_aborted.value(), 1u);
  EXPECT_EQ(server_->metrics().queries_deadline_exceeded.value(), 1u);
  EXPECT_EQ(server_->metrics().queries_cancelled.value(), 0u);
  EXPECT_EQ(server_->metrics().queries_resource_exhausted.value(), 0u);
  ASSERT_OK_AND_ASSIGN(std::string metrics, client.Metrics());
  EXPECT_NE(metrics.find("aqp_queries_aborted_total 1"), std::string::npos);
  EXPECT_NE(metrics.find("aqp_queries_deadline_exceeded_total 1"),
            std::string::npos);

  // Same client, same query, fail point disarmed: served fine.
  ASSERT_TRUE(server_->running());
  ASSERT_OK_AND_ASSIGN(resp, client.Query({item}));
  ASSERT_OK(resp.results[0].status);
  EXPECT_EQ(resp.results[0].result.num_groups(), 6u);

  // A cancellation lands on its own code's counter.
  ASSERT_OK(failpoint::SetForTesting("exec.groupby.alloc:cancel"));
  ASSERT_OK_AND_ASSIGN(resp, client.Query({item}));
  failpoint::ClearForTesting();
  EXPECT_EQ(resp.results[0].status.code(), StatusCode::kCancelled);
  EXPECT_EQ(server_->metrics().queries_aborted.value(), 2u);
  EXPECT_EQ(server_->metrics().queries_cancelled.value(), 1u);
  EXPECT_EQ(server_->metrics().queries_deadline_exceeded.value(), 1u);

  // An injected hard error is likewise contained as kInternal.
  ASSERT_OK(failpoint::SetForTesting("exec.groupby.alloc:error"));
  ASSERT_OK_AND_ASSIGN(resp, client.Query({item}));
  failpoint::ClearForTesting();
  EXPECT_EQ(resp.results[0].status.code(), StatusCode::kInternal);
  EXPECT_EQ(server_->metrics().queries_failed.value(), 1u);
  ASSERT_OK_AND_ASSIGN(resp, client.Query({item}));
  ASSERT_OK(resp.results[0].status);
  server_->Stop();
}

// A refresh batch {exact Q, approx Q} builds Q's full-table GroupIndex once:
// the exact query builds it, and the approximate query's catalog miss
// stratifies on the same index (the batch's QueryContext memo). Every
// full-table build passes the exec.group_index.alloc fail point (armed
// `off`, which only counts), and so does the index the catalog builds over
// the drawn sample's rows. The answers are byte-identical to the same two
// queries sent as two batches to a second server, whose approximate query
// stratifies on a fresh build.
TEST_F(ServerTest, BatchSharesOneFullTableGroupIndex) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("shared_together");
  StartServer(opts);
  ServerOptions opts2;
  opts2.socket_path = TestSocketPath("shared_apart");
  AqpServer apart(opts2);
  ASSERT_OK(apart.RegisterTable("skewed", &table_));
  ASSERT_OK(apart.Start());

  std::vector<QueryRequestItem> batch(2);
  batch[0].sql = "SELECT g, AVG(v), SUM(v) FROM skewed GROUP BY g";
  batch[0].exact = true;
  batch[1].sql = batch[0].sql;
  batch[1].sample_rate = 0.25;

  ASSERT_OK(failpoint::SetForTesting("exec.group_index.alloc:off"));
  auto builds_during = [](auto&& fn) {
    const uint64_t before = failpoint::HitCount("exec.group_index.alloc");
    fn();
    return failpoint::HitCount("exec.group_index.alloc") - before;
  };

  AqpClient client;
  ASSERT_OK(client.Connect(opts.socket_path));
  ResponseEnvelope together;
  const uint64_t together_builds = builds_during([&] {
    ASSERT_OK_AND_ASSIGN(together, client.Query(batch));
  });

  AqpClient client2;
  ASSERT_OK(client2.Connect(opts2.socket_path));
  ResponseEnvelope exact_alone, approx_alone;
  const uint64_t exact_builds = builds_during([&] {
    ASSERT_OK_AND_ASSIGN(exact_alone, client2.Query({batch[0]}));
  });
  const uint64_t approx_builds = builds_during([&] {
    ASSERT_OK_AND_ASSIGN(approx_alone, client2.Query({batch[1]}));
  });
  failpoint::ClearForTesting();

  EXPECT_EQ(exact_builds, 1u);
  EXPECT_EQ(approx_builds, 2u);  // stratification + sample-row index
  EXPECT_EQ(together_builds, 2u);

  ASSERT_EQ(together.results.size(), 2u);
  ASSERT_OK(together.results[0].status);
  ASSERT_OK(together.results[1].status);
  EXPECT_EQ(together.results[1].served_from, ServedFrom::kCatalogBuild);
  ASSERT_OK(exact_alone.results[0].status);
  ASSERT_OK(approx_alone.results[0].status);
  EXPECT_EQ(approx_alone.results[0].served_from, ServedFrom::kCatalogBuild);
  ExpectWireBitIdentical(together.results[0].result,
                         exact_alone.results[0].result);
  ExpectWireBitIdentical(together.results[1].result,
                         approx_alone.results[0].result);
  apart.Stop();
  server_->Stop();
}

// The memo is the batch's: a later batch, or a batch grouping the table by
// other columns, builds its own full-table index.
TEST_F(ServerTest, LaterOrDifferentlyGroupedBatchesDoNotShare) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("shared_not");
  StartServer(opts);
  AqpClient client;
  ASSERT_OK(client.Connect(opts.socket_path));
  QueryRequestItem exact;
  exact.sql = "SELECT g, AVG(v) FROM skewed GROUP BY g";
  exact.exact = true;
  QueryRequestItem whole = exact;
  whole.sql = "SELECT AVG(v) FROM skewed";

  ASSERT_OK(failpoint::SetForTesting("exec.group_index.alloc:off"));
  const uint64_t before = failpoint::HitCount("exec.group_index.alloc");
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope first, client.Query({exact}));
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope second, client.Query({exact}));
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope mixed,
                       client.Query({exact, whole, exact}));
  const uint64_t builds =
      failpoint::HitCount("exec.group_index.alloc") - before;
  failpoint::ClearForTesting();
  // One build per batch for the first two; the mixed batch's one-slot memo
  // holds the grouping by g, then by nothing, then by g again.
  EXPECT_EQ(builds, 5u);
  ASSERT_OK(mixed.results[2].status);
  ExpectWireBitIdentical(mixed.results[2].result, first.results[0].result);
  ExpectWireBitIdentical(second.results[0].result, first.results[0].result);
  server_->Stop();
}

// Bad SQL and unknown tables are per-query failures, not connection or
// server failures.
TEST_F(ServerTest, MalformedQueriesAreContained) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("badsql");
  StartServer(opts);

  AqpClient client;
  ASSERT_OK(client.Connect(opts.socket_path));
  std::vector<QueryRequestItem> batch(3);
  batch[0].sql = "SELECT FROM nothing";  // parse error
  batch[1].sql = "SELECT g, AVG(v) FROM missing GROUP BY g";  // bad table
  batch[1].exact = true;
  batch[2].sql = "SELECT g, AVG(v) FROM skewed GROUP BY g";  // fine
  batch[2].exact = true;
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope resp, client.Query(batch));
  ASSERT_EQ(resp.results.size(), 3u);
  EXPECT_EQ(resp.results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(resp.results[1].status.code(), StatusCode::kNotFound);
  EXPECT_OK(resp.results[2].status);
  server_->Stop();
}

TEST_F(ServerTest, MetricsScrapeAndShutdownRequest) {
  ServerOptions opts;
  opts.socket_path = TestSocketPath("metrics");
  StartServer(opts);

  AqpClient client;
  ASSERT_OK(client.Connect(opts.socket_path));
  QueryRequestItem item;
  item.sql = "SELECT g, AVG(v) FROM skewed GROUP BY g";
  item.sample_rate = 0.2;
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope resp, client.Query({item}));
  ASSERT_OK(resp.results[0].status);

  ASSERT_OK_AND_ASSIGN(std::string metrics, client.Metrics());
  EXPECT_NE(metrics.find("aqp_requests_received_total 1"), std::string::npos);
  EXPECT_NE(metrics.find("aqp_queries_served_total 1"), std::string::npos);
  EXPECT_NE(metrics.find("aqp_sample_builds_total 1"), std::string::npos);
  EXPECT_NE(metrics.find("aqp_catalog_samples 1"), std::string::npos);
  EXPECT_NE(metrics.find("aqp_query_latency_seconds_count 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("aqp_registered_tables 1"), std::string::npos);
  // A published sample holds its rows, weights and group index.
  EXPECT_GT(GaugeValue(metrics, "aqp_catalog_resident_bytes"), 0u);
  server_->catalog().Clear();
  ASSERT_OK_AND_ASSIGN(metrics, client.Metrics());
  EXPECT_EQ(GaugeValue(metrics, "aqp_catalog_resident_bytes"), 0u);

  // kShutdown wakes a Wait()ing owner; teardown still answers in-flight
  // work first (this response already arrived by protocol ordering).
  std::thread waiter([&] { server_->Wait(); });
  ASSERT_OK(client.RequestShutdown());
  waiter.join();
  EXPECT_FALSE(server_->running());
}

// Connection readers answer from one published sample at once, all reading
// its table and cached GroupIndex: concurrent ExecuteApprox calls on a
// shared catalog sample must equal the serial answers bit for bit (and
// run race-free under TSan).
TEST(SampleCatalogConcurrencyTest, SharedSampleAnswersBitIdenticalAcrossThreads) {
  const Table table = MakeSkewedTable(/*groups=*/6, /*base=*/200);
  std::vector<QuerySpec> queries;
  for (const char* sql :
       {"SELECT g, AVG(v), SUM(v), COUNT(*) FROM t GROUP BY g",
        "SELECT g, AVG(v), SUM(v), COUNT(*) FROM t WHERE v > 30 GROUP BY g",
        "SELECT AVG(v), SUM(v), COUNT(*) FROM t WHERE v < 45"}) {
    ASSERT_OK_AND_ASSIGN(ParsedQuery parsed, ParseSql(sql));
    queries.push_back(parsed.query);
  }
  SampleCatalog catalog(9);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const StratifiedSample> sample,
                       catalog.GetOrBuild(table, queries[0], 0.2));
  ASSERT_NE(sample->group_index(queries[0].group_by), nullptr);
  std::vector<QueryResult> serial;
  for (const QuerySpec& q : queries) {
    ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteApprox(*sample, q));
    serial.push_back(std::move(r));
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  std::vector<std::vector<Result<QueryResult>>> got(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        const QuerySpec& q = queries[(w + r) % queries.size()];
        got[w].push_back(ExecuteApprox(*sample, q));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < kThreads; ++w) {
    for (int r = 0; r < kRounds; ++r) {
      SCOPED_TRACE(testing::Message() << "worker " << w << " round " << r);
      ASSERT_OK(got[w][r].status());
      ExpectBitIdentical(got[w][r].value(),
                                serial[(w + r) % queries.size()]);
    }
  }
}

// Catalog LRU eviction. Builds are deterministic in (seed, key), so a
// throwaway catalog measures each key's sample size first and the scenario
// catalog then gets budgets placed exactly between the interesting totals.
// A published catalog sample keeps no stratification: its strata map every
// base-table row, so keeping them would make a resident sample grow with
// its base table. Same-size samples over a table and over that table
// repeated four times hold the same bytes. A sampler called directly still
// records the stratification it drew under.
TEST(SampleCatalogFootprintTest, PublishedSamplesDoNotPinBaseTableStrata) {
  const Table small = MakeSkewedTable(/*groups=*/6, /*base=*/400);
  const Table big = small.Duplicate(4);
  const std::string sql = "SELECT g, AVG(v) FROM t GROUP BY g";
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed, ParseSql(sql));
  SampleCatalog catalog;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const StratifiedSample> over_small,
                       catalog.GetOrBuild(small, parsed.query, 0.1));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const StratifiedSample> over_big,
                       catalog.GetOrBuild(big, parsed.query, 0.025));
  EXPECT_EQ(over_small->stratification(), nullptr);
  EXPECT_EQ(over_big->stratification(), nullptr);
  ASSERT_EQ(over_small->size(), over_big->size());
  EXPECT_EQ(over_small->resident_bytes(), over_big->resident_bytes());

  ASSERT_OK_AND_ASSIGN(StratifiedSample direct,
                       ReplicateCatalogBuild(small, sql, 0.1, 42));
  ASSERT_NE(direct.stratification(), nullptr);
  EXPECT_EQ(direct.stratification()->row_strata().size(), small.num_rows());
  EXPECT_EQ(direct.rows(), over_small->rows());
}

TEST(SampleCatalogEvictionTest, EvictsLruAndKeepsTouchedEntries) {
  const Table table = MakeSkewedTable(/*groups=*/6, /*base=*/40);
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed,
                       ParseSql("SELECT g, AVG(v) FROM t GROUP BY g"));
  const QuerySpec& q = parsed.query;
  const double r1 = 0.20, r2 = 0.25, r3 = 0.30, r4 = 0.10;

  uint64_t n1 = 0, n2 = 0, n3 = 0, n4 = 0;
  {
    SampleCatalog probe(7);
    ASSERT_OK(probe.GetOrBuild(table, q, r1).status());
    n1 = probe.resident_rows();
    ASSERT_OK(probe.GetOrBuild(table, q, r2).status());
    n2 = probe.resident_rows() - n1;
    ASSERT_OK(probe.GetOrBuild(table, q, r3).status());
    n3 = probe.resident_rows() - n1 - n2;
    ASSERT_OK(probe.GetOrBuild(table, q, r4).status());
    n4 = probe.resident_rows() - n1 - n2 - n3;
    ASSERT_GT(n1, 0u);
    ASSERT_LT(n4, n3);  // the second scenario relies on one eviction only
  }

  SampleCatalog catalog(7);
  uint64_t listener_calls = 0;
  catalog.SetEvictionListener([&] { ++listener_calls; });

  // Publishing r3 pushes the total one row past the budget: the LRU entry
  // (r1) goes, and one eviction suffices.
  catalog.SetRowBudgetForTesting(n1 + n2 + n3 - 1);
  ASSERT_OK(catalog.GetOrBuild(table, q, r1).status());
  ASSERT_OK(catalog.GetOrBuild(table, q, r2).status());
  EXPECT_EQ(catalog.evictions(), 0u);
  ASSERT_OK(catalog.GetOrBuild(table, q, r3).status());
  EXPECT_EQ(catalog.evictions(), 1u);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.resident_rows(), n2 + n3);

  // A hit touches: after touching r2, publishing r4 over budget must evict
  // r3 (the recency tail), not the older-published r2.
  bool hit = false;
  ASSERT_OK(catalog.GetOrBuild(table, q, r2, &hit).status());
  EXPECT_TRUE(hit);
  catalog.SetRowBudgetForTesting(n2 + n3);
  ASSERT_OK(catalog.GetOrBuild(table, q, r4).status());
  EXPECT_EQ(catalog.evictions(), 2u);
  EXPECT_EQ(catalog.resident_rows(), n2 + n4);
  ASSERT_OK(catalog.GetOrBuild(table, q, r2, &hit).status());
  EXPECT_TRUE(hit);
  ASSERT_OK(catalog.GetOrBuild(table, q, r4, &hit).status());
  EXPECT_TRUE(hit);
  // The evicted key simply rebuilds on next use.
  const uint64_t builds_before = catalog.builds();
  ASSERT_OK(catalog.GetOrBuild(table, q, r3, &hit).status());
  EXPECT_FALSE(hit);
  EXPECT_EQ(catalog.builds(), builds_before + 1);
  EXPECT_EQ(listener_calls, catalog.evictions());
}

TEST(SampleCatalogEvictionTest, NewestPublishAlwaysSurvivesItsAdmission) {
  const Table table = MakeSkewedTable(/*groups=*/6, /*base=*/40);
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed,
                       ParseSql("SELECT g, SUM(v) FROM t GROUP BY g"));
  SampleCatalog catalog(7);
  catalog.SetRowBudgetForTesting(1);  // smaller than any sample
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const StratifiedSample> s,
                       catalog.GetOrBuild(table, parsed.query, 0.25));
  EXPECT_GT(s->size(), 1u);
  EXPECT_EQ(catalog.size(), 1u);  // kept despite busting the budget
  EXPECT_EQ(catalog.evictions(), 0u);
  // The next publish displaces it (it is now the LRU tail).
  ASSERT_OK(catalog.GetOrBuild(table, parsed.query, 0.5).status());
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.evictions(), 1u);
}

TEST(SampleCatalogEvictionTest, EvictionCounterRendersInMetrics) {
  ServerMetrics metrics;
  metrics.catalog_evictions.Inc();
  const std::string out = metrics.RenderPrometheus();
  EXPECT_NE(out.find("aqp_catalog_evictions_total 1"), std::string::npos);
}

}  // namespace
}  // namespace cvopt
