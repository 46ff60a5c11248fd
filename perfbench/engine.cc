#include "engine.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "dvicl/serialize.h"
#include "ssm/ssm_at.h"

namespace perfbench {

using dvicl::BigUint;
using dvicl::Coloring;
using dvicl::DviclResult;
using dvicl::SsmIndex;
using dvicl::VertexId;
using dvicl::obs::TraceRecorder;
using dvicl::obs::TraceSpan;

std::vector<std::vector<VertexId>> ConnectedQueries(const dvicl::Graph& graph,
                                                    size_t min_size,
                                                    size_t max_size,
                                                    int per_size,
                                                    uint64_t seed) {
  dvicl::Rng rng(seed);
  std::vector<std::vector<VertexId>> queries;
  for (size_t size = min_size; size <= max_size; ++size) {
    for (int q = 0; q < per_size;) {
      std::vector<VertexId> set = {
          static_cast<VertexId>(rng.NextBounded(graph.NumVertices()))};
      // Grow from a random member through a random neighbor; give up on a
      // start whose component is too small.
      for (int attempt = 0; set.size() < size && attempt < 64; ++attempt) {
        const VertexId from = set[rng.NextBounded(set.size())];
        const auto neighbors = graph.Neighbors(from);
        if (neighbors.empty()) break;
        const VertexId next = neighbors[rng.NextBounded(neighbors.size())];
        if (std::find(set.begin(), set.end(), next) == set.end()) {
          set.push_back(next);
        }
      }
      if (set.size() < size) continue;
      std::sort(set.begin(), set.end());
      queries.push_back(std::move(set));
      ++q;
    }
  }
  return queries;
}

namespace {

// Every result of `results` into one stream.
std::string SaveAll(const std::vector<DviclResult>& results, Tally* tally) {
  std::ostringstream out;
  for (const DviclResult& result : results) {
    tally->Check(dvicl::SaveDviclResult(result, out).ok());
  }
  return std::move(out).str();
}

std::vector<DviclResult> LoadAll(const std::string& bytes, size_t count,
                                 Tally* tally) {
  std::istringstream in(bytes);
  std::vector<DviclResult> results;
  results.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto loaded = dvicl::LoadDviclResult(in);
    if (!tally->Check(loaded.ok())) {
      results.emplace_back();
      continue;
    }
    results.push_back(std::move(loaded).value());
  }
  return results;
}

PassTimes AddStats(PassTimes times, const dvicl::DviclStats& stats) {
  times.refine_s += stats.refine_seconds;
  times.divide_s += stats.divide_seconds;
  times.combine_s += stats.combine_seconds;
  return times;
}

}  // namespace

EngineBench::EngineBench(const std::vector<dvicl::Graph>& corpus,
                         EngineConfig config, Tally* tally)
    : corpus_(corpus), config_(std::move(config)), tally_(tally) {}

// Library defaults: single-threaded, cert cache off, arena on, bliss-like
// leaf backend.
PassTimes EngineBench::LabelInProcess(std::vector<DviclResult>* results) {
  PassTimes times;
  results->clear();
  results->reserve(corpus_.size());
  const double start = Now();
  for (const dvicl::Graph& graph : corpus_) {
    TraceSpan span(config_.trace, "dvicl.label", "perfbench");
    results->push_back(dvicl::DviclCanonicalLabeling(
        graph, Coloring::Unit(graph.NumVertices())));
  }
  times.wall_s = Now() - start;
  for (const DviclResult& result : *results) {
    tally_->Check(result.completed());
    times = AddStats(times, result.stats);
  }
  return times;
}

// A cold pass in a forked child: it starts from this process's state, as a
// fresh CLI process would, and reports its times through a pipe. Its
// certificates must equal the first round's.
PassTimes EngineBench::LabelForked() {
  TraceSpan span(config_.trace, "dvicl.label_forked", "perfbench");
  PassTimes times;
  times.wall_s = -1.0;
  int pipe_fds[2];
  if (!tally_->Check(pipe(pipe_fds) == 0)) return times;
  const pid_t pid = fork();
  if (pid == 0) {
    close(pipe_fds[0]);
    std::vector<DviclResult> results;
    PassTimes child = LabelInProcess(&results);
    for (size_t i = 0; i < results.size(); ++i) {
      if (!CertificateMatches(results[i], results_[i].certificate)) {
        child.wall_s = -1.0;
      }
    }
    const ssize_t written = write(pipe_fds[1], &child, sizeof(child));
    _exit(written == sizeof(child) ? 0 : 1);
  }
  close(pipe_fds[1]);
  if (pid > 0 && read(pipe_fds[0], &times, sizeof(times)) != sizeof(times)) {
    times.wall_s = -1.0;
  }
  close(pipe_fds[0]);
  int status = 0;
  if (pid > 0) waitpid(pid, &status, 0);
  tally_->Check(pid > 0 && times.wall_s > 0.0 && WIFEXITED(status) &&
                WEXITSTATUS(status) == 0);
  return times;
}

// The first save is of the labeled results; every later one is of what the
// previous load produced, and its bytes must equal the first save's.
void EngineBench::SaveAndLoad(const std::vector<DviclResult>& from) {
  std::string bytes;
  {
    TraceSpan span(config_.trace, "serialize.save", "perfbench");
    const double start = Now();
    bytes = SaveAll(from, tally_);
    save_s_.push_back(Now() - start);
  }
  const size_t hash = std::hash<std::string>{}(bytes);
  if (saved_bytes_ == 0) {
    first_hash_ = hash;
    saved_bytes_ = bytes.size();
  } else {
    tally_->Check(hash == first_hash_ && bytes.size() == saved_bytes_);
  }
  Sample();
  loaded_indexes_.clear();  // they refer to loaded_
  loaded_.clear();
  {
    TraceSpan span(config_.trace, "serialize.load", "perfbench");
    const double start = Now();
    loaded_ = LoadAll(bytes, corpus_.size(), tally_);
    load_s_.push_back(Now() - start);
  }
  if (config_.moments == 0) return;
  for (size_t i = 0; i < corpus_.size(); ++i) {
    loaded_indexes_.emplace_back(corpus_[i], loaded_[i]);
  }
}

void EngineBench::RunRounds(int min_rounds, double seconds) {
  const double start = Now();
  for (int round = 0; round < min_rounds || Now() - start < seconds; ++round) {
    Round();
  }
}

void EngineBench::Round() {
  const size_t round = rounds_++;
  PinToCpu(static_cast<int>(round));
  if (round == 0) {
    passes_.push_back(LabelInProcess(&results_));
    peak_rss_mib_ = dvicl::PeakRssMebibytes();
    for (size_t i = 0; i < corpus_.size(); ++i) {
      indexes_.emplace_back(corpus_[i], results_[i]);
    }
    query_counts_.resize(config_.queries.size());
    query_answered_.assign(config_.queries.size(), false);
    SaveAndLoad(results_);
  } else {
    if (config_.fork_labels) {
      PinToCpu(-1);  // the child picks its own CPU, as a new process would
      const PassTimes times = LabelForked();
      if (times.wall_s > 0.0) passes_.push_back(times);
      PinToCpu(static_cast<int>(round));
    } else {
      std::vector<DviclResult> results;
      passes_.push_back(LabelInProcess(&results));
      for (size_t i = 0; i < results.size(); ++i) {
        tally_->Check(CertificateMatches(results[i], results_[i].certificate));
      }
    }
    Sample();
    SaveAndLoad(loaded_);
  }
  if (config_.moments == 0) {
    for (size_t q = 0; q < config_.queries.size(); ++q) AnswerQuery(q);
  } else {
    Sample();
  }
  PinToCpu(-1);
}

// A query answered before must get the same count again.
void EngineBench::AnswerQuery(size_t q) {
  const auto& [graph, query] = config_.queries[q];
  BigUint count;
  {
    TraceSpan span(config_.trace, "ssm.count", "perfbench");
    const double start = Now();
    count = indexes_[graph].CountSymmetricImages(query);
    query_ms_.push_back((Now() - start) * 1e3);
  }
  if (query_answered_[q]) {
    tally_->Check(count == query_counts_[q]);
  } else {
    query_counts_[q] = count;
    query_answered_[q] = true;
    tally_->Check(!(count == BigUint(0)));
  }
}

void EngineBench::Sample() {
  const size_t moments = config_.moments;
  if (moments_ == moments || loaded_indexes_.empty()) return;
  const size_t m = moments_++;
  const size_t queries = config_.queries.size();
  const size_t first = m * queries / moments;
  const size_t last = (m + 1) * queries / moments;
  for (size_t q = first; q < last; ++q) {
    AnswerQuery(q);
    const auto& [graph, query] = config_.queries[q];
    BigUint count;
    {
      TraceSpan span(config_.trace, "ssm.count_loaded", "perfbench");
      const double start = Now();
      count = loaded_indexes_[graph].CountSymmetricImages(query);
      loaded_ms_.push_back((Now() - start) * 1e3);
    }
    tally_->Check(count == query_counts_[q]);
  }
  if (last > first) Burst(first, last);
}

// Closed loop: every caller answers the slice's queries once on the labeled
// index; a count that differs from the first answer is a failure.
void EngineBench::Burst(size_t first, size_t last) {
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> callers;
  PinToCpu(-1);
  TraceSpan span(config_.trace, "ssm.burst", "perfbench");
  const double start = Now();
  for (int t = 0; t < kBurstThreads; ++t) {
    callers.emplace_back([&] {
      for (size_t q = first; q < last; ++q) {
        const auto& [graph, query] = config_.queries[q];
        if (!(indexes_[graph].CountSymmetricImages(query) ==
              query_counts_[q])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  burst_seconds_ += Now() - start;
  const uint64_t done = kBurstThreads * (last - first);
  burst_queries_ += done;
  tally_->attempted += done;
  tally_->failed += mismatches.load();
  PinToCpu(static_cast<int>(rounds_ - 1));
}

double EngineBench::ProbeSection(TraceRecorder* trace,
                                 const std::vector<Query>& calls) const {
  const double start = Now();
  for (const auto& [graph, query] : calls) {
    TraceSpan span(trace, "ssm.probe", "perfbench");
    indexes_[graph].CountSymmetricImages(query);
  }
  return Now() - start;
}

EngineResult EngineBench::Result() const {
  EngineResult out;
  std::vector<double> wall_s;
  for (const PassTimes& pass : passes_) wall_s.push_back(pass.wall_s);
  out.label_s = Median(wall_s);
  out.peak_rss_mib = peak_rss_mib_;
  out.save_s = Median(save_s_);
  out.load_s = Median(load_s_);
  out.saved_bytes = saved_bytes_;
  out.index_mib = static_cast<double>(saved_bytes_) / (1024.0 * 1024.0);
  out.query_ms = Median(query_ms_);
  out.loaded_p50_ms = Median(loaded_ms_);
  out.loaded_p99_ms = Percentile(loaded_ms_, 0.99);
  out.burst_qps = burst_seconds_ > 0.0 ? burst_queries_ / burst_seconds_ : 0.0;
  out.query_latencies_ms = query_ms_;
  return out;
}

}  // namespace perfbench
