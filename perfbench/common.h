// Shared pieces of the perfbench driver: clocks, order statistics, the
// metric sheet printed as the result line, CPU rotation and the output
// checks that feed `failed` / `ok_ratio`.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dvicl/dvicl.h"
#include "server/protocol.h"

namespace perfbench {

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
inline double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// Every metric the run reports, by name, with its unit. Printed as the
// "metrics" object of the result line.
class Sheet {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    values_[name] = {value, unit};
  }
  // The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine(uint64_t attempted, uint64_t failed) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> values_;
};

// Pins the calling thread to one of the CPUs the process may use, the
// `index`-th modulo their count; a negative index restores the full set.
// The host's CPUs differ in speed by up to 2x on cache-bound code, and which
// ones are slow changes over minutes. Rotating a run's samples over all of
// them keeps a run from measuring one CPU's luck. Threads and forked
// children inherit the caller's set, so unpin before starting either.
void PinToCpu(int index);

// Output checks. Every checked operation counts as attempted; a wrong,
// failed or budget-aborted one counts as failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
};

// A completed labeling whose certificate equals `reference`.
bool CertificateMatches(const dvicl::DviclResult& result,
                        const dvicl::Certificate& reference);
// Reply bytes with the request id zeroed, the part a reference server must
// reproduce byte for byte.
std::string CanonicalReplyBytes(dvicl::server::Reply reply);
// An OK reply that matches the reference server's bytes. Non-OK replies
// (budget aborts, overload, faults) never match.
bool ReplyMatches(const dvicl::server::Reply& reply,
                  const std::string& reference_bytes);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
