// perfbench driver: one workload per invocation, one JSON result line.
//
//   perfbench_driver --workload social-1m|serve-mix --seed N --seconds S
//                    --trace 0|1 --server PATH [--trace-out F]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, records driver-side spans around every layer call and writes them
// to --trace-out at exit. BENCHMARK.md describes every metric and workload.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "datasets/generators.h"
#include "engine.h"
#include "obs/trace.h"
#include "refine/refiner.h"
#include "serve.h"
#include "server/server.h"

namespace perfbench {
namespace {

using dvicl::Coloring;
using dvicl::DviclResult;
using dvicl::Graph;
using dvicl::VertexId;
using dvicl::obs::TraceRecorder;
using dvicl::obs::TraceSpan;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string trace_out;
};

// Set-up repetitions: setup_s is the median of these.
constexpr int kSetupReps = 3;

const char* const kClasses[] = {"canonical_form", "iso_test", "aut_order",
                                "orbits", "ssm_count"};

std::vector<VertexId> SeededPermutation(VertexId n, uint64_t seed) {
  std::vector<VertexId> image(n);
  for (VertexId v = 0; v < n; ++v) image[v] = v;
  dvicl::Rng rng(seed);
  rng.Shuffle(&image);
  return image;
}

// The ROADMAP's pinned large_scale graph; seed 555 reproduces it exactly.
Graph SocialGraph(uint64_t seed) {
  Graph graph = dvicl::PreferentialAttachmentGraph(1000000, 6, seed);
  graph = dvicl::WithTwins(graph, 0.06, seed + 1);
  return dvicl::WithPendantPaths(graph, 0.05, 3, seed + 2);
}

struct Report {
  Sheet end_to_end;
  Sheet per_layer;
  Tally tally;
};

// Per-layer metrics both workloads share, from the engine section's label
// passes (medians over passes) and sampled steps.
void EngineLayers(const std::vector<Graph>& corpus,
                  const EngineBench& bench, const EngineResult& engine,
                  double footprint_mib, TraceRecorder* trace, Sheet* layer) {
  const std::vector<DviclResult>& results = bench.results();
  dvicl::DviclStats sum;
  for (const DviclResult& result : results) sum.MergeFrom(result.stats);
  std::vector<double> refine, divide, combine, unattributed;
  for (const PassTimes& pass : bench.passes()) {
    refine.push_back(pass.refine_s);
    divide.push_back(pass.divide_s);
    combine.push_back(pass.combine_s);
    unattributed.push_back(pass.wall_s - pass.refine_s - pass.divide_s -
                           pass.combine_s);
  }
  layer->Set("refine.splitters", sum.refine_splitters, "count");
  layer->Set("refine.cell_splits", sum.refine_cell_splits, "count");
  layer->Set("dvicl.refine_cpu_s", Median(refine), "s");
  layer->Set("dvicl.divide_cpu_s", Median(divide), "s");
  layer->Set("dvicl.combine_cpu_s", Median(combine), "s");
  // The part of a pass's wall time the library's phase timers miss
  // (certificate, flatten, teardown), median over the passes.
  layer->Set("dvicl.unattributed_s", Median(unattributed), "s");
  layer->Set("dvicl.autotree_nodes", sum.autotree_nodes, "count");
  layer->Set("dvicl.singleton_leaves", sum.singleton_leaves, "count");
  layer->Set("dvicl.nonsingleton_leaves", sum.nonsingleton_leaves, "count");
  layer->Set("dvicl.depth", sum.depth, "count");
  // Partial counter: SmallVec and arena-chunk events only (ROADMAP 1b).
  layer->Set("dvicl.alloc_count", sum.alloc_count, "count");
  layer->Set("dvicl.alloc_bytes", sum.alloc_bytes, "B");
  layer->Set("dvicl.rss_over_graph", engine.peak_rss_mib / footprint_mib,
             "ratio");

  const dvicl::IrStats& ir = sum.leaf_ir;
  layer->Set("ir.tree_nodes", ir.tree_nodes, "count");
  layer->Set("ir.leaves", ir.leaves, "count");
  layer->Set("ir.automorphisms", ir.automorphisms_found, "count");
  layer->Set("ir.pruned_nonref", ir.pruned_nonref, "count");
  layer->Set("ir.orbit_prunes", ir.orbit_prunes, "count");
  layer->Set("ir.backjumps", ir.backjumps, "count");
  layer->Set("ir.us_per_node",
             ir.tree_nodes > 0 ? engine.label_s * 1e6 / ir.tree_nodes : 0.0,
             "us");
  layer->Set("ir.automorphisms_per_leaf",
             ir.leaves > 0 ? static_cast<double>(ir.automorphisms_found) /
                                 ir.leaves
                           : 0.0,
             "ratio");

  layer->Set("serialize.save_ms", engine.save_s * 1e3, "ms");
  layer->Set("serialize.load_ms", engine.load_s * 1e3, "ms");
  layer->Set("serialize.bytes", engine.saved_bytes, "B");
  layer->Set("ssm.count_ms.p50", Median(engine.query_latencies_ms), "ms");
  layer->Set("ssm.count_ms.max", Percentile(engine.query_latencies_ms, 1.0),
             "ms");

  // The root refinement on its own, the index build and the tree queries,
  // summed over the corpus.
  double refine_ms = 0.0;
  double index_ms = 0.0;
  double orbits_ms = 0.0;
  double aut_order_ms = 0.0;
  uint64_t generators = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Graph& graph = corpus[i];
    {
      TraceSpan span(trace, "refine.root", "perfbench");
      Coloring pi = Coloring::Unit(graph.NumVertices());
      const double start = Now();
      dvicl::RefineToEquitable(graph, &pi);
      refine_ms += (Now() - start) * 1e3;
    }
    const DviclResult& result = results[i];
    {
      TraceSpan span(trace, "ssm.index_build", "perfbench");
      const double start = Now();
      const dvicl::SsmIndex index(graph, result);
      index_ms += (Now() - start) * 1e3;
    }
    {
      TraceSpan span(trace, "tree.orbits", "perfbench");
      const double start = Now();
      dvicl::OrbitIdsFromGenerators(graph.NumVertices(), result.generators);
      orbits_ms += (Now() - start) * 1e3;
    }
    {
      TraceSpan span(trace, "tree.aut_order", "perfbench");
      const double start = Now();
      dvicl::AutomorphismOrderFromTree(result.tree);
      aut_order_ms += (Now() - start) * 1e3;
    }
    generators += result.generators.size();
  }
  layer->Set("refine.root_ms", refine_ms, "ms");
  layer->Set("ssm.index_build_ms", index_ms, "ms");
  layer->Set("tree.orbits_ms", orbits_ms, "ms");
  layer->Set("tree.aut_order_ms", aut_order_ms, "ms");
  layer->Set("tree.generators", generators, "count");
}

// Serving-side per-layer metrics start at 0: social-1m leaves the server,
// cert cache and wire codec idle.
void ZeroServerLayers(Sheet* layer) {
  const std::pair<const char*, const char*> names[] = {
      {"cert_cache.hits", "count"},       {"cert_cache.misses", "count"},
      {"cert_cache.hit_ratio", "ratio"},  {"cert_cache.evictions", "count"},
      {"cert_cache.entries", "count"},    {"cert_cache.bytes", "B"},
      {"server.queue_wait_us.p50", "us"}, {"server.queue_wait_us.p99", "us"},
      {"server.total_us.p50", "us"},      {"server.total_us.p99", "us"},
      {"server.batch_depth.p50", "count"}, {"server.request_bytes", "B"},
      {"server.reply_bytes", "B"},        {"server.overloaded", "count"},
      {"protocol.encode_us", "us"},       {"protocol.decode_us", "us"},
      {"client.transport_us", "us"},      {"driver.lag_ms.p99", "ms"},
      {"driver.offered_qps", "1/s"},      {"driver.achieved_qps", "1/s"}};
  for (const auto& [name, unit] : names) layer->Set(name, 0.0, unit);
  for (const char* cls : kClasses) {
    layer->Set(std::string("server.exec_us.") + cls + ".p50", 0.0, "us");
    layer->Set(std::string("server.exec_us.") + cls + ".p99", 0.0, "us");
    layer->Set(std::string("server.handle_ms.") + cls, 0.0, "ms");
  }
}

// Tracing overhead, measured: the same probe section of `calls` run without
// and with spans into the run's recorder, back to back, `reps` pairs in
// alternating order. Each pair shares the host's state of the moment; the
// median over pairs of the traced section's excess, as a share of the
// untraced one.
double TraceOverheadPct(const EngineBench& bench, TraceRecorder* trace,
                        const std::vector<Query>& calls, int reps) {
  std::vector<double> excess;
  for (int rep = 0; rep < reps; ++rep) {
    double off = 0.0;
    if (rep % 2 == 0) off = bench.ProbeSection(nullptr, calls);
    const double on = bench.ProbeSection(trace, calls);
    if (rep % 2 == 1) off = bench.ProbeSection(nullptr, calls);
    excess.push_back((on - off) / off);
  }
  return 100.0 * Median(excess);
}

void SetEngineEndToEnd(const EngineResult& engine, Sheet* e2e) {
  e2e->Set("label_s", engine.label_s, "s");
  e2e->Set("save_s", engine.save_s, "s");
  e2e->Set("load_s", engine.load_s, "s");
  e2e->Set("index_mib", engine.index_mib, "MiB");
  e2e->Set("query_ms", engine.query_ms, "ms");
}

// social-1m: three rounds. Each generates the graph again (a set-up rep that
// must reproduce the first graph), labels it cold (in process in the first
// round, in a forked child after), saves and loads the result. The queries
// are answered in 10 moments spread over the run.
constexpr int kSocialRounds = 3;
constexpr size_t kSocialMoments = 10;
constexpr int kSocialQueriesPerSize = 3;  // sizes 2..5: 12 queries

void RunSocial(const Args& args, TraceRecorder* trace, Report* out) {
  std::vector<double> setup_s;
  std::vector<Graph> corpus;
  std::unique_ptr<EngineBench> bench;
  double footprint_mib = 0.0;
  for (int round = 0; round < kSocialRounds; ++round) {
    PinToCpu(round);
    double start = Now();
    Graph graph;
    {
      TraceSpan span(trace, "datasets.social", "perfbench");
      graph = SocialGraph(args.seed);
    }
    setup_s.push_back(Now() - start);
    PinToCpu(-1);
    if (round > 0) {
      out->tally.Check(graph == corpus[0]);
      bench->Sample();
      bench->Round();
      continue;
    }
    footprint_mib = dvicl::CurrentRssMebibytes();
    corpus.push_back(std::move(graph));
    EngineConfig config;
    config.trace = trace;
    config.fork_labels = true;
    config.moments = kSocialMoments;
    // Multi-vertex sets walk every child of their LCA node, ~300-450 ms
    // each, streaming from memory. Single vertices take ~1-2 ms, but they
    // scan only the root's ~9 MB of child arrays, which sit in the shared
    // L3: their latency doubled and halved with the other tenants' load.
    for (auto& query : ConnectedQueries(corpus[0], 2, 5, kSocialQueriesPerSize,
                                        args.seed * 17)) {
      config.queries.emplace_back(0, std::move(query));
    }
    bench = std::make_unique<EngineBench>(corpus, std::move(config),
                                          &out->tally);
    bench->Round();
  }
  bench->Sample();
  const EngineResult engine = bench->Result();

  Sheet& e2e = out->end_to_end;
  e2e.Set("setup_s", Median(setup_s), "s");
  SetEngineEndToEnd(engine, &e2e);
  e2e.Set("peak_rss_mib", engine.peak_rss_mib, "MiB");
  e2e.Set("p50_ms", engine.loaded_p50_ms, "ms");
  e2e.Set("p99_ms", engine.loaded_p99_ms, "ms");
  e2e.Set("saturation_qps", engine.burst_qps, "1/s");
  if (trace == nullptr) return;

  Sheet& layer = out->per_layer;
  layer.Set("datasets.generate_s", Median(setup_s), "s");
  layer.Set("graph.footprint_mib", footprint_mib, "MiB");
  EngineLayers(corpus, *bench, engine, footprint_mib, trace, &layer);
  ZeroServerLayers(&layer);
  // Probe: single-vertex calls, the densest span traffic the run has.
  std::vector<Query> probe;
  for (auto& vertex : ConnectedQueries(corpus[0], 1, 1, 50, args.seed * 19)) {
    probe.emplace_back(0, std::move(vertex));
  }
  layer.Set("trace.overhead_pct", TraceOverheadPct(*bench, trace, probe, 40),
            "%");
  // A seeded relabeling of the 1M graph must give the same certificate.
  TraceSpan span(trace, "dvicl.label_relabeled", "perfbench");
  const Graph& graph = corpus[0];
  const Graph relabeled = graph.RelabeledBy(
      SeededPermutation(graph.NumVertices(), args.seed * 131));
  out->tally.Check(CertificateMatches(
      dvicl::DviclCanonicalLabeling(relabeled,
                                    Coloring::Unit(relabeled.NumVertices())),
      bench->results()[0].certificate));
}

// serve-mix: five chunks, each an engine round block, an open-loop window
// and a closed-loop window, so every figure samples the whole run. The
// engine section labels never-seen graphs like the ones the server labels on
// a cache miss, and queries the ssm_count template's graph.
constexpr int kChunks = 5;
constexpr double kClosedChunkSeconds = 2.0;
constexpr double kEngineChunkSeconds = 0.8;
constexpr size_t kEngineGraphs = 16;

void RunServeMix(const Args& args, TraceRecorder* trace, Report* out) {
  const double open_chunk_seconds = args.seconds / kChunks;
  ServerProcess server;
  ServeInputs inputs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.Stop();
    TraceSpan span(trace, "setup.serve", "perfbench");
    const double start = Now();
    PinToCpu(rep);
    inputs = MakeServeInputs(args.seed, args.seconds,
                             kChunks * kClosedChunkSeconds);
    PinToCpu(-1);  // the server inherits the driver's CPU set
    const bool up = server.Start(args.server, kServerThreads) &&
                    WarmUp(server.port(), inputs);
    if (!out->tally.Check(up)) return;
    setup_s.push_back(Now() - start);
  }

  std::vector<Graph> corpus =
      NeverSeenGraphs(kEngineGraphs, args.seed * 3 + 3);
  for (const CheckedRequest& item : inputs.templates) {
    if (item.request.cls == dvicl::server::RequestClass::kSsmCount) {
      corpus.push_back(item.request.graph);
    }
  }
  EngineConfig engine_config;
  engine_config.trace = trace;
  for (auto& query : ConnectedQueries(corpus.back(), 1, 5, 30,
                                      args.seed * 17)) {
    engine_config.queries.emplace_back(corpus.size() - 1, std::move(query));
  }
  const double footprint_mib = dvicl::CurrentRssMebibytes();
  const std::vector<Query> bench_queries = engine_config.queries;
  EngineBench bench(corpus, std::move(engine_config), &out->tally);

  const auto stats_before = FetchStats(server.port(), false);
  Sequence open_sequence(inputs.templates, inputs.open_fresh,
                         args.seed * 7 + 5);
  Sequence closed_sequence(inputs.templates, inputs.closed_fresh,
                           args.seed * 11 + 3);
  dvicl::Rng send_jitter(args.seed * 13 + 7);
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  double closed_completed = 0.0;
  double closed_elapsed = 0.0;
  double completed = 0.0;
  double open_elapsed = 0.0;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    bench.RunRounds(1, kEngineChunkSeconds);
    {
      TraceSpan span(trace, "driver.open_loop", "perfbench");
      const OpenLoopResult open =
          RunOpenLoop(server.port(), &open_sequence, open_chunk_seconds,
                      &send_jitter, &out->tally);
      latency_ms.insert(latency_ms.end(), open.latency_ms.begin(),
                        open.latency_ms.end());
      lag_ms.insert(lag_ms.end(), open.lag_ms.begin(), open.lag_ms.end());
      completed += open.completed;
      open_elapsed += open.elapsed_s;
    }
    TraceSpan span(trace, "driver.closed_loop", "perfbench");
    const ClosedLoopResult closed = RunClosedLoop(
        server.port(), &closed_sequence, kClosedChunkSeconds, trace,
        &out->tally);
    closed_completed += closed.completed;
    closed_elapsed += closed.elapsed_s;
  }
  const EngineResult engine = bench.Result();
  const auto stats_after = FetchStats(server.port(), false);
  const auto metrics = FetchStats(server.port(), true);
  std::vector<double> transport_us;
  if (trace != nullptr) transport_us = ControlRoundTripsUs(server.port(), 200);
  const double server_peak_mib = server.Stop();

  Sheet& e2e = out->end_to_end;
  e2e.Set("setup_s", Median(setup_s), "s");
  SetEngineEndToEnd(engine, &e2e);
  e2e.Set("peak_rss_mib", server_peak_mib, "MiB");
  e2e.Set("p50_ms", Median(latency_ms), "ms");
  e2e.Set("p99_ms", Percentile(latency_ms, 0.99), "ms");
  e2e.Set("saturation_qps", closed_completed / closed_elapsed, "1/s");
  if (trace == nullptr) return;

  Sheet& layer = out->per_layer;
  layer.Set("datasets.generate_s", 0.0, "s");
  layer.Set("graph.footprint_mib", footprint_mib, "MiB");
  EngineLayers(corpus, bench, engine, footprint_mib, trace, &layer);
  ZeroServerLayers(&layer);
  layer.Set("trace.overhead_pct",
            TraceOverheadPct(bench, trace, bench_queries, 50), "%");
  auto delta = [&](const char* key) -> double {
    auto after = stats_after.find(key);
    auto before = stats_before.find(key);
    if (after == stats_after.end()) return 0.0;
    return static_cast<double>(after->second) -
           (before == stats_before.end() ? 0.0 : before->second);
  };
  auto level = [&](const std::string& key) -> double {
    auto it = metrics.find(key);
    if (it != metrics.end()) return static_cast<double>(it->second);
    auto stat = stats_after.find(key);
    return stat == stats_after.end() ? 0.0 : stat->second;
  };
  const double hits = delta("cache.hits");
  const double misses = delta("cache.misses");
  layer.Set("cert_cache.hits", hits, "count");
  layer.Set("cert_cache.misses", misses, "count");
  layer.Set("cert_cache.hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  layer.Set("cert_cache.evictions", delta("cache.evictions"), "count");
  layer.Set("cert_cache.entries", level("cache.entries"), "count");
  layer.Set("cert_cache.bytes", level("cache.bytes"), "B");
  layer.Set("server.overloaded", delta("overloaded"), "count");

  // Server histograms are per class; the class-free figures are the worst
  // class (p50/p99) or the sum over classes (bytes).
  double queue_p50 = 0, queue_p99 = 0, total_p50 = 0, total_p99 = 0;
  double request_bytes = 0, reply_bytes = 0;
  for (const char* cls : kClasses) {
    const std::string c = cls;
    queue_p50 = std::max(
        queue_p50, level("server.queue_wait_us." + c + ".p50"));
    queue_p99 = std::max(
        queue_p99, level("server.queue_wait_us." + c + ".p99"));
    total_p50 = std::max(total_p50, level("server.total_us." + c + ".p50"));
    total_p99 = std::max(total_p99, level("server.total_us." + c + ".p99"));
    request_bytes += level("server.request_bytes." + c + ".sum");
    reply_bytes += level("server.reply_bytes." + c + ".sum");
    layer.Set("server.exec_us." + c + ".p50",
              level("server.exec_us." + c + ".p50"), "us");
    layer.Set("server.exec_us." + c + ".p99",
              level("server.exec_us." + c + ".p99"), "us");
  }
  layer.Set("server.queue_wait_us.p50", queue_p50, "us");
  layer.Set("server.queue_wait_us.p99", queue_p99, "us");
  layer.Set("server.total_us.p50", total_p50, "us");
  layer.Set("server.total_us.p99", total_p99, "us");
  layer.Set("server.batch_depth.p50", level("server.batch_depth.p50"),
            "count");
  layer.Set("server.request_bytes", request_bytes, "B");
  layer.Set("server.reply_bytes", reply_bytes, "B");

  // In-process Server::Handle per class, and the wire codec, over the
  // templates (warm: every template once before timing).
  dvicl::server::ServerOptions options;
  options.num_threads = 1;
  dvicl::server::Server local(options);
  for (const CheckedRequest& item : inputs.templates) {
    local.Handle(item.request);
  }
  std::vector<double> handle_ms[std::size(kClasses)];
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  for (int rep = 0; rep < 20; ++rep) {
    for (const CheckedRequest& item : inputs.templates) {
      TraceSpan span(trace, "server.handle", "perfbench");
      double start = Now();
      local.Handle(item.request);
      handle_ms[static_cast<int>(item.request.cls)].push_back(
          (Now() - start) * 1e3);
      std::string payload;
      start = Now();
      EncodeRequest(item.request, &payload);
      encode_us.push_back((Now() - start) * 1e6);
      dvicl::server::Reply reply;
      start = Now();
      const bool decoded = DecodeReply(item.reference, &reply).ok();
      decode_us.push_back((Now() - start) * 1e6);
      out->tally.Check(decoded);
    }
  }
  for (size_t cls = 0; cls < std::size(kClasses); ++cls) {
    layer.Set(std::string("server.handle_ms.") + kClasses[cls],
              Median(handle_ms[cls]), "ms");
  }
  layer.Set("protocol.encode_us", Median(encode_us), "us");
  layer.Set("protocol.decode_us", Median(decode_us), "us");
  layer.Set("client.transport_us", Median(transport_us), "us");
  layer.Set("driver.lag_ms.p99", Percentile(lag_ms, 0.99), "ms");
  layer.Set("driver.offered_qps", kOfferedQps, "1/s");
  layer.Set("driver.achieved_qps",
            open_elapsed > 0 ? completed / open_elapsed : 0.0, "1/s");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (args->workload == "social-1m" || args->workload == "serve-mix") &&
         args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload social-1m|serve-mix "
                 "--seed N --seconds S --trace 0|1 --server PATH "
                 "[--trace-out FILE]\n");
    return 2;
  }
  std::unique_ptr<TraceRecorder> recorder;
  if (args.trace) recorder = std::make_unique<TraceRecorder>();
  Report report;
  if (args.workload == "serve-mix") {
    RunServeMix(args, recorder.get(), &report);
  } else {
    RunSocial(args, recorder.get(), &report);
  }
  const Tally& tally = report.tally;
  const double error_rate =
      tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted
                          : 1.0;
  report.end_to_end.Set("ok_ratio", 1.0 - error_rate, "ratio");
  report.per_layer.Set("driver.error_rate", error_rate, "ratio");
  if (recorder != nullptr && !args.trace_out.empty()) {
    recorder->WriteJsonFile(args.trace_out);
  }
  const Sheet& sheet = args.trace ? report.per_layer : report.end_to_end;
  std::printf("%s\n", sheet.ResultLine(std::max<uint64_t>(tally.attempted, 1),
                                       tally.attempted > 0 ? tally.failed : 1)
                          .c_str());
  return 0;
}
