// The output checks behind `failed` / `ok_ratio`: a correct certificate or
// reply passes, a deliberately corrupted one is counted as failed.
//
//   cmake --build .bench_build --target perfbench_checks_test
//   .bench_build/perfbench_checks_test

#include <gtest/gtest.h>

#include "common.h"
#include "datasets/generators.h"
#include "server/server.h"

namespace perfbench {
namespace {

using dvicl::Coloring;
using dvicl::DviclCanonicalLabeling;

TEST(ChecksTest, CorruptedCertificateRaisesFailures) {
  const dvicl::Graph graph = dvicl::CfiGraph(8, false);
  const auto result =
      DviclCanonicalLabeling(graph, Coloring::Unit(graph.NumVertices()));
  dvicl::Certificate reference = result.certificate;
  Tally tally;
  tally.Check(CertificateMatches(result, reference));
  EXPECT_EQ(tally.failed, 0u);
  reference.back() ^= 1;  // one flipped edge bit
  tally.Check(CertificateMatches(result, reference));
  EXPECT_EQ(tally.attempted, 2u);
  EXPECT_EQ(tally.failed, 1u);
}

TEST(ChecksTest, CorruptedReplyRaisesFailures) {
  dvicl::server::ServerOptions options;
  options.num_threads = 1;
  dvicl::server::Server server(options);
  dvicl::server::Request request;
  request.cls = dvicl::server::RequestClass::kAutOrder;
  request.graph = dvicl::GadgetForestGraph(2, 3);
  const std::string reference = CanonicalReplyBytes(server.Handle(request));

  request.id = 42;  // ids differ between the wire and the reference
  dvicl::server::Reply reply = server.Handle(request);
  Tally tally;
  tally.Check(ReplyMatches(reply, reference));
  EXPECT_EQ(tally.failed, 0u);

  dvicl::server::Reply corrupted = reply;
  corrupted.aut_order += "0";
  tally.Check(ReplyMatches(corrupted, reference));
  dvicl::server::Reply refused = reply;
  refused.status = dvicl::wire::WireStatus::kNodeBudget;
  tally.Check(ReplyMatches(refused, reference));
  EXPECT_EQ(tally.attempted, 3u);
  EXPECT_EQ(tally.failed, 2u);
}

}  // namespace
}  // namespace perfbench
