// Serving-path micro-benchmarks: full client round trips through a live
// AqpServer over an AF_UNIX socket, so the numbers include framing, the
// execution-slot grant, governance setup, and the response encode — the
// price of an answer, not just the executor. BM_ServerCatalogHit is the
// paper's reuse fast path (shared sample already published);
// BM_ServerSampleBuild pays the catalog miss every iteration (the offline
// phase run online); BM_ServerExact is the ground-truth path; the threaded
// variant measures concurrent clients sharing the server's 4 execution
// slots (threads:8 has more connections than slots, so batches wait).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "src/datagen/openaq_gen.h"
#include "src/server/aqp_server.h"
#include "src/server/client.h"

namespace cvopt {
namespace {

constexpr double kRate = 0.01;
const char kApproxSql[] =
    "SELECT country, AVG(value) FROM openaq GROUP BY country";
const char kExactSql[] =
    "SELECT country, AVG(value) FROM openaq GROUP BY country";

const Table& BenchTable() {
  static const Table* t = [] {
    OpenAqOptions opts;
    opts.num_rows = 500'000;
    return new Table(GenerateOpenAq(opts));
  }();
  return *t;
}

// One server shared by every benchmark in the binary.
AqpServer& BenchServer() {
  static AqpServer* server = [] {
    ServerOptions options;
    options.socket_path =
        "/tmp/cvopt_bench_server_" + std::to_string(::getpid()) + ".sock";
    options.num_workers = 4;
    auto* s = new AqpServer(options);
    CVOPT_CHECK(s->RegisterTable("openaq", &BenchTable()).ok(),
                "register table");
    CVOPT_CHECK(s->Start().ok(), "server start");
    return s;
  }();
  return *server;
}

QueryRequestItem ApproxItem() {
  QueryRequestItem item;
  item.sql = kApproxSql;
  item.sample_rate = kRate;
  return item;
}

// Round trips answered from the warm shared sample (the serving fast path).
void BM_ServerCatalogHit(benchmark::State& state) {
  AqpServer& server = BenchServer();
  AqpClient client;
  CVOPT_CHECK(client.Connect(server.options().socket_path).ok(), "connect");
  const std::vector<QueryRequestItem> batch = {ApproxItem()};
  {  // warm the catalog so every timed iteration hits
    auto warm = client.Query(batch);
    CVOPT_CHECK(warm.ok() && warm->results[0].status.ok(), "warm-up");
  }
  for (auto _ : state) {
    auto resp = client.Query(batch);
    benchmark::DoNotOptimize(resp);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerCatalogHit)->UseRealTime();

// Same round trip with the catalog cleared each iteration: every answer
// pays the stratified-sample build (stats + allocation + draw) first.
void BM_ServerSampleBuild(benchmark::State& state) {
  AqpServer& server = BenchServer();
  AqpClient client;
  CVOPT_CHECK(client.Connect(server.options().socket_path).ok(), "connect");
  const std::vector<QueryRequestItem> batch = {ApproxItem()};
  for (auto _ : state) {
    state.PauseTiming();
    server.catalog().Clear();
    state.ResumeTiming();
    auto resp = client.Query(batch);
    benchmark::DoNotOptimize(resp);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerSampleBuild)->UseRealTime();

// Ground-truth round trip: the exact engine over the full base table.
void BM_ServerExact(benchmark::State& state) {
  AqpServer& server = BenchServer();
  AqpClient client;
  CVOPT_CHECK(client.Connect(server.options().socket_path).ok(), "connect");
  std::vector<QueryRequestItem> batch(1);
  batch[0].sql = kExactSql;
  batch[0].exact = true;
  for (auto _ : state) {
    auto resp = client.Query(batch);
    benchmark::DoNotOptimize(resp);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerExact)->UseRealTime();

// Concurrent clients on the catalog fast path: each benchmark thread is one
// connection; items/s is the server's aggregate answered-query throughput.
void BM_ServerCatalogHitParallel(benchmark::State& state) {
  AqpServer& server = BenchServer();
  AqpClient client;
  CVOPT_CHECK(client.Connect(server.options().socket_path).ok(), "connect");
  const std::vector<QueryRequestItem> batch = {ApproxItem()};
  {
    auto warm = client.Query(batch);
    CVOPT_CHECK(warm.ok() && warm->results[0].status.ok(), "warm-up");
  }
  for (auto _ : state) {
    auto resp = client.Query(batch);
    benchmark::DoNotOptimize(resp);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerCatalogHitParallel)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace cvopt
