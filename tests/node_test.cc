// Direct tests of the per-node testbed runtime: DM request execution timing
// and I/O accounting, write-ahead journaling, rollback, unlock costs, and
// TM-server serialization.

#include <gtest/gtest.h>

#include "sim/process.h"
#include "sim/simulation.h"
#include "txn/node.h"
#include "workload/spec.h"

namespace carat::txn {
namespace {

model::SiteParams TestSite() {
  // Borrow the Node-A parameterization from the standard workloads.
  return workload::MakeLB8(4).ToModelInput().sites[0];
}

struct ExecResult {
  bool done = false;
  bool ok = false;
  double finished_at = 0.0;
};

sim::Process RunRequest(Node& node, GlobalTxnId gid,
                        const model::ClassParams& costs,
                        RequestSpec request, ExecResult* out) {
  node.locks().StartTxn(gid, node.simulation().now());
  out->ok = co_await node.ExecuteRequest(gid, costs, request);
  out->done = true;
  out->finished_at = node.simulation().now();
}

sim::Process RunRollback(Node& node, GlobalTxnId gid,
                         const model::ClassParams& costs, bool* done) {
  co_await node.RollbackAt(gid, costs);
  node.locks().EndTxn(gid);
  *done = true;
}

TEST(Node, ReadRequestCostsExactlyItsServiceDemands) {
  sim::Simulation sim;
  const model::SiteParams site = TestSite();
  Node node(sim, 0, site);
  const model::ClassParams& costs = site.Class(model::TxnType::kLRO);

  RequestSpec req;
  req.node = 0;
  req.update = false;
  req.records = {0, 6, 12, 18};  // four distinct granules

  ExecResult result;
  RunRequest(node, 1, costs, req, &result);
  sim.RunUntil(1e9);
  ASSERT_TRUE(result.done);
  EXPECT_TRUE(result.ok);
  // Uncontended: DM cpu (5 visits) + 4 * (LR + DMIO cpu) + 4 block reads.
  const double expected = 5 * costs.dm_cpu_ms +
                          4 * (costs.lr_cpu_ms + costs.dmio_cpu_ms) +
                          4 * site.block_io_ms;
  EXPECT_NEAR(result.finished_at, expected, 1e-9);
  EXPECT_EQ(node.db_disk().completions(), 4u);
  EXPECT_EQ(node.locks().HeldCount(1), 4u);
  EXPECT_EQ(node.log().size(), 0u);  // reads journal nothing
}

TEST(Node, UpdateRequestDoesThreeIosPerAccessAndJournals) {
  sim::Simulation sim;
  const model::SiteParams site = TestSite();
  Node node(sim, 0, site);
  const model::ClassParams& costs = site.Class(model::TxnType::kLU);

  RequestSpec req;
  req.node = 0;
  req.update = true;
  req.records = {0, 6};

  ExecResult result;
  RunRequest(node, 1, costs, req, &result);
  sim.RunUntil(1e9);
  ASSERT_TRUE(result.ok);
  // Table 2: updates cost three block transfers per access.
  EXPECT_EQ(node.db_disk().completions(), 6u);
  EXPECT_EQ(node.log().size(), 2u);  // one before image per access
  EXPECT_EQ(node.database().Read(0), 1);
  EXPECT_EQ(node.database().Read(6), 1);
  EXPECT_TRUE(node.locks().Holds(1, 0, lock::LockMode::kExclusive));
}

TEST(Node, ReaccessingAGranuleReusesItsLock) {
  sim::Simulation sim;
  const model::SiteParams site = TestSite();
  Node node(sim, 0, site);
  const model::ClassParams& costs = site.Class(model::TxnType::kLU);

  RequestSpec req;
  req.node = 0;
  req.update = true;
  req.records = {0, 1, 2};  // three records in the same granule

  ExecResult result;
  RunRequest(node, 1, costs, req, &result);
  sim.RunUntil(1e9);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(node.locks().HeldCount(1), 1u);       // one granule lock
  EXPECT_EQ(node.db_disk().completions(), 9u);    // but 3 I/Os per access
}

TEST(Node, RollbackRestoresDataAndChargesUndoIo) {
  sim::Simulation sim;
  const model::SiteParams site = TestSite();
  Node node(sim, 0, site);
  const model::ClassParams& costs = site.Class(model::TxnType::kLU);

  RequestSpec req;
  req.node = 0;
  req.update = true;
  req.records = {0, 6};
  ExecResult result;
  RunRequest(node, 1, costs, req, &result);
  sim.RunUntil(1e9);
  ASSERT_TRUE(result.ok);
  const auto ios_before = node.db_disk().completions();

  bool rolled_back = false;
  RunRollback(node, 1, costs, &rolled_back);
  sim.RunUntil(2e9);
  ASSERT_TRUE(rolled_back);
  EXPECT_EQ(node.database().Read(0), 0);
  EXPECT_EQ(node.database().Read(6), 0);
  EXPECT_EQ(node.locks().HeldCount(1), 0u);
  // Two granules restored: journal read + database write each.
  EXPECT_EQ(node.db_disk().completions() - ios_before, 4u);
}

TEST(Node, SeparateLogDiskTakesJournalTraffic) {
  sim::Simulation sim;
  model::SiteParams site = TestSite();
  site.separate_log_disk = true;
  Node node(sim, 0, site);
  const model::ClassParams& costs = site.Class(model::TxnType::kLU);

  RequestSpec req;
  req.node = 0;
  req.update = true;
  req.records = {0};
  ExecResult result;
  RunRequest(node, 1, costs, req, &result);
  sim.RunUntil(1e9);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(node.db_disk().completions(), 2u);   // data read + data write
  EXPECT_EQ(node.log_disk().completions(), 1u);  // journal write
  EXPECT_TRUE(node.has_separate_log_disk());
}

sim::Process TmJob(Node& node, double cost, std::vector<double>* done) {
  co_await node.TmHandle(cost);
  done->push_back(node.simulation().now());
}

TEST(Node, TmServerSerializesMessageProcessing) {
  sim::Simulation sim;
  Node node(sim, 0, TestSite());
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) TmJob(node, 8.0, &done);
  sim.RunUntil(1e9);
  // One message at a time through the single TM server.
  EXPECT_EQ(done, (std::vector<double>{8.0, 16.0, 24.0}));
}

TEST(Node, PickRecordsStaysInRange) {
  sim::Simulation sim;
  Node node(sim, 0, TestSite());
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    for (const db::RecordId r : node.PickRecords(4, &rng)) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, node.database().num_records());
    }
  }
}

TEST(Node, SkewedPickConcentratesOnHotSet) {
  sim::Simulation sim;
  model::SiteParams site = TestSite();
  site.hot_data_fraction = 0.1;
  site.hot_access_fraction = 0.8;
  Node node(sim, 0, site);
  util::Rng rng(5);
  const db::RecordId hot_limit =
      static_cast<db::RecordId>(0.1 * node.database().num_records());
  int hot = 0, total = 0;
  for (int i = 0; i < 5000; ++i) {
    for (const db::RecordId r : node.PickRecords(4, &rng)) {
      ++total;
      if (r < hot_limit) ++hot;
    }
  }
  const double ratio = static_cast<double>(hot) / total;
  EXPECT_NEAR(ratio, 0.8, 0.02);
}

}  // namespace
}  // namespace carat::txn
