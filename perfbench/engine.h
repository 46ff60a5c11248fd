// The in-process engine section: label a corpus, save and load the results
// through an in-memory stream, and answer SSM count queries from the labeled
// and from the loaded index. Each step calls the layer's public functions and
// is timed from outside.
//
// The section runs in rounds, and every round samples every step once, on
// the next CPU (PinToCpu). The host's memory bandwidth and per-CPU speed
// swing on a scale of seconds, so samples spread over the run and over the
// CPUs give steadier medians than samples taken back to back.
#ifndef PERFBENCH_ENGINE_H_
#define PERFBENCH_ENGINE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common.h"
#include "dvicl/dvicl.h"
#include "obs/trace.h"
#include "ssm/ssm_at.h"

namespace perfbench {

// Concurrent callers of a query burst.
inline constexpr int kBurstThreads = 2;

// (corpus index, connected vertex set): one CountSymmetricImages call.
using Query = std::pair<size_t, std::vector<dvicl::VertexId>>;

struct EngineConfig {
  // Rounds after the first label the corpus in a forked child, so every
  // label call is a cold call in a process that has not labeled before, as
  // a CLI user's would be. The first round labels in process: its results
  // are the ones saved and queried.
  bool fork_labels = false;
  // Timed CountSymmetricImages calls.
  std::vector<Query> queries;
  // 0: every round answers every query on the labeled index after its
  // load. Otherwise the queries are split into `moments` equal slices, one
  // per Sample() call: after each label, save and load from the first load
  // on, and wherever the workload calls Sample(). A slice's queries are
  // answered on the labeled index, then on the index over the latest loaded
  // results (the counts must agree), then by kBurstThreads concurrent
  // callers on the labeled index. The host switches between fast and slow
  // states every few seconds, so samples from many moments of the run give
  // medians that hold still.
  size_t moments = 0;
  dvicl::obs::TraceRecorder* trace = nullptr;
};

// Wall time and the library's phase timers of one cold label pass.
struct PassTimes {
  double wall_s = 0.0;
  double refine_s = 0.0;
  double divide_s = 0.0;
  double combine_s = 0.0;
};

struct EngineResult {
  double label_s = 0.0;        // median pass wall time
  double peak_rss_mib = 0.0;   // process peak right after the first pass
  double save_s = 0.0;         // median save of the whole corpus
  double load_s = 0.0;         // median load of the whole corpus
  double index_mib = 0.0;      // saved bytes of the whole corpus
  double query_ms = 0.0;       // median query latency, labeled index
  double loaded_p50_ms = 0.0;  // query latency, loaded index
  double loaded_p99_ms = 0.0;
  double burst_qps = 0.0;      // queries per second over all bursts
  uint64_t saved_bytes = 0;
  std::vector<double> query_latencies_ms;
};

class EngineBench {
 public:
  EngineBench(const std::vector<dvicl::Graph>& corpus, EngineConfig config,
              Tally* tally);

  // One round: label, save, load; every query, or the next slices.
  void Round();
  // Takes the next slice of the queries (moments > 0).
  void Sample();
  // Rounds until at least `min_rounds` ran in this call and `seconds`
  // elapsed.
  void RunRounds(int min_rounds, double seconds);

  EngineResult Result() const;

  // The first round's results, and the wall and phase times of every pass.
  const std::vector<dvicl::DviclResult>& results() const { return results_; }
  const std::vector<PassTimes>& passes() const { return passes_; }

  // Seconds a pass over `calls` on the labeled index takes, each call in a
  // span of `trace` (may be null). The traced run compares the two to
  // measure its own overhead.
  double ProbeSection(dvicl::obs::TraceRecorder* trace,
                      const std::vector<Query>& calls) const;

 private:
  PassTimes LabelInProcess(std::vector<dvicl::DviclResult>* results);
  PassTimes LabelForked();
  // Times one save of `from` and one load of its bytes into loaded_.
  void SaveAndLoad(const std::vector<dvicl::DviclResult>& from);
  void AnswerQuery(size_t q);
  void Burst(size_t first, size_t last);

  const std::vector<dvicl::Graph>& corpus_;
  const EngineConfig config_;
  Tally* const tally_;

  std::vector<dvicl::DviclResult> results_;
  std::vector<dvicl::DviclResult> loaded_;
  std::vector<dvicl::SsmIndex> indexes_;
  std::vector<dvicl::SsmIndex> loaded_indexes_;  // over loaded_
  std::vector<dvicl::BigUint> query_counts_;
  std::vector<bool> query_answered_;
  size_t first_hash_ = 0;  // of the first save's bytes
  uint64_t saved_bytes_ = 0;
  size_t rounds_ = 0;
  size_t moments_ = 0;

  double peak_rss_mib_ = 0.0;
  std::vector<PassTimes> passes_;
  std::vector<double> save_s_;
  std::vector<double> load_s_;
  std::vector<double> query_ms_;
  std::vector<double> loaded_ms_;
  double burst_seconds_ = 0.0;
  uint64_t burst_queries_ = 0;
};

// Seeded connected vertex sets of sizes min_size..max_size on `graph`,
// `per_size` of each size.
std::vector<std::vector<dvicl::VertexId>> ConnectedQueries(
    const dvicl::Graph& graph, size_t min_size, size_t max_size, int per_size,
    uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_H_
