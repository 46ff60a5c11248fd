// The serve-mix workload: the real dvicl_server over loopback TCP, driven
// open-loop at a fixed offered rate (latency from each request's scheduled
// send) and closed-loop for saturation, every OK reply byte-compared to an
// in-process reference Server.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "server/protocol.h"

namespace perfbench {

// One dvicl_server child on an ephemeral loopback port. The child gets
// SIGKILL if the driver dies, so no server outlives a run.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Starts `binary --port=0 --threads=N` and waits for its port line.
  bool Start(const std::string& binary, int threads);
  // SIGTERM, wait; returns the child's peak RSS in MiB (0 if not running).
  double Stop();
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// A request with the reference server's reply bytes.
struct CheckedRequest {
  dvicl::server::Request request;
  std::string reference;
};

struct ServeInputs {
  // loadgen's gadget-forest template pool (all five compute classes).
  std::vector<CheckedRequest> templates;
  // Never-seen graphs, one per kFreshEvery requests, so cache misses,
  // inserts and leaf IR stay inside the timed windows.
  std::vector<CheckedRequest> open_fresh;
  std::vector<CheckedRequest> closed_fresh;
};

// The serve-mix traffic. Server pool threads plus driver connections stay
// within 4 CPUs.
inline constexpr int kServerThreads = 2;
inline constexpr int kConnections = 2;
// About a fifth of the mix's closed-loop saturation (~400-600/s at the
// seed commit). Near half of it (190/s), a client that acknowledges at once
// saw the median request sit at the knee between direct replies (~1 ms)
// and replies queued behind an aut_order (2-20 ms), and p50 flipped
// between 1 and 2.5 ms from run to run; once the server's delayed-ACK
// lockstep is fixed, that knee is what p50 measures.
inline constexpr double kOfferedQps = 100.0;
// Every k-th request is a never-seen graph.
inline constexpr uint64_t kFreshEvery = 10;
// Capacity of each closed-loop fresh set, in requests per second of loop.
inline constexpr double kClosedCapacityQps = 1000.0;

// Random 3-regular graphs on 64 vertices, the never-seen requests' graphs.
// Refinement cannot split a regular graph, so each is one root leaf searched
// by IR: for the server a cache miss and an insert.
std::vector<dvicl::Graph> NeverSeenGraphs(size_t count, uint64_t seed);

// Builds the request pool and the reference replies for `open_seconds` of
// open loop and `closed_seconds` of closed loop.
ServeInputs MakeServeInputs(uint64_t seed, double open_seconds,
                            double closed_seconds);

// Sends every template once (fills the server's cert cache).
bool WarmUp(uint16_t port, const ServeInputs& inputs);

// The request sequence of a run: every kFreshEvery-th request is the next
// never-seen graph; the others deal the templates from a deck reshuffled by
// the seed each time it runs out. Every template appears once per deck, so
// each class keeps its exact share and only the order depends on the seed
// (the expensive aut_order requests set the tail and the saturation).
class Sequence {
 public:
  Sequence(const std::vector<CheckedRequest>& templates,
           const std::vector<CheckedRequest>& fresh, uint64_t seed);
  // The next request, with its run-wide id; null when the fresh set ran
  // out.
  const CheckedRequest* Next(uint64_t* id);

 private:
  const std::vector<CheckedRequest>& templates_;
  const std::vector<CheckedRequest>& fresh_;
  dvicl::Rng rng_;
  std::vector<size_t> deck_;
  uint64_t next_ = 0;
};

struct OpenLoopResult {
  std::vector<double> latency_ms;  // from scheduled send to reply
  std::vector<double> lag_ms;      // actual send minus scheduled send
  double elapsed_s = 0.0;
  uint64_t completed = 0;
};
// `seconds` of requests at kOfferedQps over kConnections connections, each
// sent at its scheduled time whether or not earlier replies are back.
// Request k is due at (k + u) / kOfferedQps, u uniform in [-0.5, 0.5) from
// `jitter`. With a fixed interval, the delayed-ACK lockstep (BENCHMARK.md)
// holds every reply to a multiple of the connection's 20 ms send interval,
// and p99 jumps between those steps from run to run; the jitter spreads
// the hold time evenly while keeping every gap on a connection under the
// 40 ms delayed-ACK timer.
OpenLoopResult RunOpenLoop(uint16_t port, Sequence* sequence, double seconds,
                           dvicl::Rng* jitter, Tally* tally);

struct ClosedLoopResult {
  uint64_t completed = 0;  // correct replies
  double elapsed_s = 0.0;
};
// `seconds` with kConnections callers, each sending its next request when
// the previous reply arrived.
ClosedLoopResult RunClosedLoop(uint16_t port, Sequence* sequence,
                               double seconds,
                               dvicl::obs::TraceRecorder* trace, Tally* tally);

// Flattened kServerStats / kServerMetrics snapshots.
std::map<std::string, uint64_t> FetchStats(uint16_t port, bool metrics);

// Round trips of `count` kServerStats requests on one connection, in us:
// the wire and server overhead without compute.
std::vector<double> ControlRoundTripsUs(uint16_t port, int count);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
