#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::string Sheet::ResultLine(uint64_t attempted, uint64_t failed) const {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
  out += buf;
  bool first = true;
  for (const auto& [name, value] : values_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value.value,
                  value.unit.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

void PinToCpu(int index) {
  static const cpu_set_t all = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  if (index < 0) {
    sched_setaffinity(0, sizeof(all), &all);
    return;
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(index) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

bool CertificateMatches(const dvicl::DviclResult& result,
                        const dvicl::Certificate& reference) {
  return result.completed() && !reference.empty() &&
         result.certificate == reference;
}

std::string CanonicalReplyBytes(dvicl::server::Reply reply) {
  reply.id = 0;
  std::string encoded;
  EncodeReply(reply, &encoded);
  return encoded;
}

bool ReplyMatches(const dvicl::server::Reply& reply,
                  const std::string& reference_bytes) {
  return reply.ok() && CanonicalReplyBytes(reply) == reference_bytes;
}

}  // namespace perfbench
