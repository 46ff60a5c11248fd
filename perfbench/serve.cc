#include "serve.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "datasets/generators.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

using dvicl::Graph;
using dvicl::Result;
using dvicl::VertexId;
using dvicl::server::Client;
using dvicl::server::Reply;
using dvicl::server::Request;
using dvicl::server::RequestClass;

bool ServerProcess::Start(const std::string& binary, int threads) {
  int out[2];
  if (pipe(out) != 0) return false;
  const std::string threads_flag = "--threads=" + std::to_string(threads);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execl(binary.c_str(), binary.c_str(), "--port=0", threads_flag.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(out[1]);
  // "dvicl_server listening on 127.0.0.1:PORT", within 10 s.
  std::string line;
  const double deadline = Now() + 10.0;
  while (line.find('\n') == std::string::npos && Now() < deadline) {
    pollfd pfd = {out[0], POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) continue;
    char buf[256];
    const ssize_t got = read(out[0], buf, sizeof(buf));
    if (got <= 0) break;
    line.append(buf, static_cast<size_t>(got));
  }
  close(out[0]);
  const size_t colon = line.rfind(':');
  if (line.find("listening on") == std::string::npos ||
      colon == std::string::npos) {
    Stop();
    return false;
  }
  port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
  return port_ != 0;
}

double ServerProcess::Stop() {
  if (pid_ <= 0) return 0.0;
  kill(pid_, SIGTERM);
  int status = 0;
  rusage usage = {};
  pid_t waited = 0;
  const double deadline = Now() + 10.0;
  while ((waited = wait4(pid_, &status, WNOHANG, &usage)) == 0 &&
         Now() < deadline) {
    usleep(5000);
  }
  if (waited == 0) {
    kill(pid_, SIGKILL);
    wait4(pid_, &status, 0, &usage);
  }
  pid_ = -1;
  port_ = 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

// A loopback connection through the repository's Client as it ships: no
// socket options of the driver's own. dvicl_server writes replies without
// TCP_NODELAY, and the Client's delayed ACKs then hold pipelined replies
// (BENCHMARK.md, "Measured facts"); the latencies here include that.
Result<Client> Connect(uint16_t port) {
  auto connected = Client::ConnectTcp("127.0.0.1", port);
  if (connected.ok()) connected.value().set_deadline_ms(30'000);
  return connected;
}

// The template pool of bench/loadgen.cc's gadget-forest mix.
std::vector<Request> GadgetForestPool() {
  std::vector<Request> pool;
  auto add = [&pool](Graph graph, RequestClass cls) {
    Request request;
    request.cls = cls;
    request.graph = std::move(graph);
    pool.push_back(std::move(request));
  };
  for (uint32_t copies : {2u, 3u, 4u, 5u}) {
    for (uint32_t rungs : {3u, 4u}) {
      add(dvicl::GadgetForestGraph(copies, rungs),
          RequestClass::kCanonicalForm);
    }
  }
  for (uint32_t copies : {2u, 3u, 4u}) {
    add(dvicl::GadgetForestGraph(copies, 3), RequestClass::kAutOrder);
    add(dvicl::GadgetForestGraph(copies, 4), RequestClass::kOrbits);
  }
  Request iso;
  iso.cls = RequestClass::kIsoTest;
  iso.graph = dvicl::GadgetForestGraph(3, 3);
  iso.graph2 = dvicl::GadgetForestGraph(3, 3);
  pool.push_back(std::move(iso));
  Request ssm;
  ssm.cls = RequestClass::kSsmCount;
  ssm.graph = dvicl::GadgetForestGraph(4, 3);
  for (VertexId v = 0; v < 6; ++v) ssm.query.push_back(v);
  pool.push_back(std::move(ssm));
  return pool;
}

// Never-seen canonical_form requests.
std::vector<Request> FreshGraphs(size_t count, uint64_t seed) {
  std::vector<Request> fresh;
  fresh.reserve(count);
  for (Graph& graph : NeverSeenGraphs(count, seed)) {
    Request request;
    request.cls = RequestClass::kCanonicalForm;
    request.graph = std::move(graph);
    fresh.push_back(std::move(request));
  }
  return fresh;
}

std::vector<CheckedRequest> WithReferences(std::vector<Request> requests,
                                           dvicl::server::Server* reference) {
  std::vector<CheckedRequest> checked;
  checked.reserve(requests.size());
  for (Request& request : requests) {
    std::string bytes = CanonicalReplyBytes(reference->Handle(request));
    checked.push_back({std::move(request), std::move(bytes)});
  }
  return checked;
}

}  // namespace

std::vector<Graph> NeverSeenGraphs(size_t count, uint64_t seed) {
  dvicl::Rng rng(seed);
  std::vector<Graph> graphs;
  graphs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    graphs.push_back(dvicl::RandomRegularGraph(64, 3, rng.Next()));
  }
  return graphs;
}

Sequence::Sequence(const std::vector<CheckedRequest>& templates,
                   const std::vector<CheckedRequest>& fresh, uint64_t seed)
    : templates_(templates), fresh_(fresh), rng_(seed) {}

const CheckedRequest* Sequence::Next(uint64_t* id) {
  const uint64_t k = next_++;
  *id = k + 1;
  if ((k + 1) % kFreshEvery == 0) {
    const uint64_t index = k / kFreshEvery;
    return index < fresh_.size() ? &fresh_[index] : nullptr;
  }
  if (deck_.empty()) {
    for (size_t i = 0; i < templates_.size(); ++i) deck_.push_back(i);
    rng_.Shuffle(&deck_);
  }
  const size_t index = deck_.back();
  deck_.pop_back();
  return &templates_[index];
}

ServeInputs MakeServeInputs(uint64_t seed, double open_seconds,
                            double closed_seconds) {
  dvicl::server::ServerOptions options;
  options.num_threads = 1;
  dvicl::server::Server reference(options);
  ServeInputs inputs;
  inputs.templates = WithReferences(GadgetForestPool(), &reference);
  const size_t open_count =
      static_cast<size_t>(kOfferedQps * open_seconds / kFreshEvery + 1);
  inputs.open_fresh =
      WithReferences(FreshGraphs(open_count, seed * 3 + 1), &reference);
  const size_t closed_count =
      static_cast<size_t>(kClosedCapacityQps * closed_seconds / kFreshEvery);
  inputs.closed_fresh =
      WithReferences(FreshGraphs(closed_count, seed * 3 + 2), &reference);
  return inputs;
}

bool WarmUp(uint16_t port, const ServeInputs& inputs) {
  auto connected = Connect(port);
  if (!connected.ok()) return false;
  Client client = std::move(connected).value();
  uint64_t id = 1;
  for (const CheckedRequest& item : inputs.templates) {
    Request request = item.request;
    request.id = id++;
    auto reply = client.Call(request);
    if (!reply.ok() || !ReplyMatches(reply.value(), item.reference)) {
      return false;
    }
  }
  return true;
}

OpenLoopResult RunOpenLoop(uint16_t port, Sequence* sequence, double seconds,
                           dvicl::Rng* jitter, Tally* tally) {
  // The window's requests, fixed before any send.
  std::vector<const CheckedRequest*> items;
  std::vector<uint64_t> ids;
  const uint64_t total = static_cast<uint64_t>(kOfferedQps * seconds);
  for (uint64_t k = 0; k < total; ++k) {
    uint64_t id = 0;
    const CheckedRequest* item = sequence->Next(&id);
    if (!tally->Check(item != nullptr)) break;
    items.push_back(item);
    ids.push_back(id);
  }
  const size_t count = items.size();
  const uint64_t first_id = ids.empty() ? 0 : ids.front();
  std::vector<double> scheduled(count);
  std::vector<double> sent(count, 0.0);
  std::vector<double> received(count, 0.0);
  std::vector<uint8_t> ok(count, 0);

  const double start = Now() + 0.05;
  for (size_t k = 0; k < count; ++k) {
    const double due = static_cast<double>(k) + jitter->NextDouble() - 0.5;
    scheduled[k] = start + due / kOfferedQps;
  }
  std::vector<std::thread> connections;
  for (int c = 0; c < kConnections; ++c) {
    connections.emplace_back([&, c] {
      auto connected = Connect(port);
      if (!connected.ok()) return;
      Client client = std::move(connected).value();
      // This connection owns requests c, c + C, c + 2C, ...
      size_t next = static_cast<size_t>(c);
      size_t outstanding = 0;
      const double drain_deadline =
          scheduled.empty() ? start : scheduled.back() + 30.0;
      while (next < count || outstanding > 0) {
        const double now = Now();
        if (next < count && now >= scheduled[next]) {
          Request request = items[next]->request;
          request.id = ids[next];
          sent[next] = Now();
          if (!client.Send(request).ok()) break;
          ++outstanding;
          next += static_cast<size_t>(kConnections);
          continue;
        }
        if (now > drain_deadline) break;
        const double wait =
            next < count ? scheduled[next] - now : drain_deadline - now;
        pollfd pfd = {client.fd(), POLLIN, 0};
        timespec timeout = {
            static_cast<time_t>(wait),
            static_cast<long>((wait - static_cast<time_t>(wait)) * 1e9)};
        if (ppoll(&pfd, 1, &timeout, nullptr) <= 0) continue;
        Reply reply;
        if (!client.Receive(&reply).ok()) break;
        const double at = Now();
        --outstanding;
        if (reply.id < first_id || reply.id >= first_id + count) continue;
        const size_t k = reply.id - first_id;
        received[k] = at;
        ok[k] = ReplyMatches(reply, items[k]->reference) ? 1 : 0;
      }
    });
  }
  for (std::thread& connection : connections) connection.join();

  OpenLoopResult out;
  double last = start;
  for (size_t k = 0; k < count; ++k) {
    // A lost reply counts as failed; its latency is unknown, not zero.
    tally->Check(received[k] > 0.0 && ok[k]);
    if (sent[k] > 0.0) out.lag_ms.push_back((sent[k] - scheduled[k]) * 1e3);
    if (received[k] > 0.0) {
      ++out.completed;
      out.latency_ms.push_back((received[k] - scheduled[k]) * 1e3);
      last = std::max(last, received[k]);
    }
  }
  out.elapsed_s = last - start;
  return out;
}

ClosedLoopResult RunClosedLoop(uint16_t port, Sequence* sequence,
                               double seconds,
                               dvicl::obs::TraceRecorder* trace, Tally* tally) {
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<bool> exhausted{false};
  std::mutex sequence_mu;
  const double start = Now();
  const double deadline = start + seconds;
  std::vector<std::thread> connections;
  for (int c = 0; c < kConnections; ++c) {
    connections.emplace_back([&] {
      auto connected = Connect(port);
      if (!connected.ok()) return;
      Client client = std::move(connected).value();
      while (Now() < deadline) {
        const CheckedRequest* item;
        Request request;
        {
          std::lock_guard<std::mutex> lock(sequence_mu);
          item = sequence->Next(&request.id);
        }
        if (item == nullptr) {
          exhausted.store(true);
          break;
        }
        const uint64_t id = request.id;
        request = item->request;
        request.id = id;
        dvicl::obs::TraceSpan span(trace, "client.call", "perfbench");
        auto reply = client.Call(request);
        if (!reply.ok() || !ReplyMatches(reply.value(), item->reference)) {
          wrong.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& connection : connections) connection.join();
  const double elapsed = Now() - start;
  tally->attempted += completed.load();
  tally->failed += wrong.load();
  // Running out of never-seen graphs would change the mix: a failed run.
  tally->Check(!exhausted.load());
  return {completed.load() - wrong.load(), elapsed};
}

std::map<std::string, uint64_t> FetchStats(uint16_t port, bool metrics) {
  std::map<std::string, uint64_t> values;
  auto connected = Connect(port);
  if (!connected.ok()) return values;
  auto reply = metrics ? connected.value().FetchMetrics(1)
                       : connected.value().FetchStats(1);
  if (reply.ok() && reply.value().ok()) {
    for (const auto& [name, value] : reply.value().stats) values[name] = value;
  }
  return values;
}

std::vector<double> ControlRoundTripsUs(uint16_t port, int count) {
  std::vector<double> round_trips;
  auto connected = Connect(port);
  if (!connected.ok()) return round_trips;
  for (int i = 0; i < count; ++i) {
    const double start = Now();
    if (!connected.value().FetchStats(i + 1).ok()) break;
    round_trips.push_back((Now() - start) * 1e6);
  }
  return round_trips;
}

}  // namespace perfbench
