// Direct tests of the Chandy-Misra-Haas-style probe detector: build two
// nodes, drive two distributed transactions into a textbook cross-site
// deadlock, and watch the probes break it.
//
// The test transactions follow the testbed's site discipline: every
// lock table and registry is touched only from its own site's timeline, and
// moves between sites are explicit network hops (with the coordinator's
// current-node pointer updated at the home site before departing), exactly
// as the testbed's drivers do.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "txn/node.h"
#include "txn/probes.h"
#include "txn/registry.h"

namespace carat::txn {
namespace {

struct Harness {
  sim::Kernel kernel;
  net::Network network;
  TxnRegistrySet registry;
  std::vector<std::unique_ptr<Node>> nodes;
  std::unique_ptr<GlobalDeadlockDetector> detector;

  explicit Harness(int num_nodes = 2)
      : kernel(num_nodes),
        network(kernel, /*one_way_delay_ms=*/1.0),
        registry(num_nodes) {
    for (int i = 0; i < num_nodes; ++i) {
      model::SiteParams params;
      params.name = "N" + std::to_string(i);
      params.num_granules = 100;
      params.records_per_granule = 6;
      params.block_io_ms = 10.0;
      nodes.push_back(std::make_unique<Node>(sim::SitePort{&kernel, i}, i,
                                             params));
    }
    std::vector<Node*> ptrs;
    for (auto& n : nodes) ptrs.push_back(n.get());
    GlobalDeadlockDetector::Options options;
    options.reprobe_interval_ms = 20.0;
    detector = std::make_unique<GlobalDeadlockDetector>(kernel, network,
                                                        registry, ptrs,
                                                        options);
    for (int i = 0; i < num_nodes; ++i) {
      nodes[i]->locks().on_block = [this, i](
          GlobalTxnId w, const std::vector<GlobalTxnId>& h) {
        detector->OnBlock(i, w, h);
      };
    }
  }

  GlobalTxnId NewTxn(model::TxnType type, int home) {
    return registry.at(home).NewTxn(type);
  }
};

struct TxnState {
  bool aborted = false;
  bool finished = false;
};

// Acquires X on (first_node, first_granule), waits, then X on
// (second_node, second_granule). Rolls back everywhere on abort. The gid
// must be homed at first_node so the probe detector's home-registry lookup
// finds its current node.
sim::Process CrossSiteTxn(Harness& h, GlobalTxnId gid, int first_node,
                          db::GranuleId first_granule, int second_node,
                          db::GranuleId second_granule, TxnState* out) {
  co_await h.network.Hop(first_node);
  Node& first = *h.nodes[first_node];
  first.locks().StartTxn(gid, first.simulation().now());
  auto r1 = co_await lock::AcquireAwaiter{first.locks(), first.simulation(),
                                          gid, first_granule,
                                          lock::LockMode::kExclusive};
  EXPECT_EQ(r1, lock::LockOutcome::kGranted);
  co_await sim::Delay{sim::SitePort{&h.kernel, first_node}, 5.0};
  Node& second = *h.nodes[second_node];
  if (second_node != first_node) {
    h.registry.at(first_node).SetCurrentNode(gid, second_node);
    co_await h.network.Hop(second_node);
    second.locks().StartTxn(gid, second.simulation().now());
  }
  auto r2 = co_await lock::AcquireAwaiter{second.locks(), second.simulation(),
                                          gid, second_granule,
                                          lock::LockMode::kExclusive};
  out->aborted = (r2 == lock::LockOutcome::kAborted);
  h.nodes[second_node]->locks().ReleaseAll(gid);
  if (second_node != first_node) {
    co_await h.network.Hop(first_node);
    h.registry.at(first_node).SetCurrentNode(gid, first_node);
  }
  h.nodes[first_node]->locks().ReleaseAll(gid);
  out->finished = true;
}

TEST(Probes, BreaksTwoCycleGlobalDeadlock) {
  Harness h;
  const GlobalTxnId t1 = h.NewTxn(model::TxnType::kDUC, 0);
  const GlobalTxnId t2 = h.NewTxn(model::TxnType::kDUC, 1);
  TxnState s1, s2;
  // T1: lock 5@0 then 7@1. T2: lock 7@1... T2 takes 7@1 then 5@0.
  CrossSiteTxn(h, t1, 0, 5, 1, 7, &s1);
  CrossSiteTxn(h, t2, 1, 7, 0, 5, &s2);
  h.kernel.RunUntil(5'000.0);
  EXPECT_TRUE(s1.finished);
  EXPECT_TRUE(s2.finished);
  // Exactly one is the probe's victim; the other completes.
  EXPECT_NE(s1.aborted, s2.aborted);
  EXPECT_EQ(h.detector->global_deadlocks(), 1u);
  EXPECT_GT(h.detector->probes_sent(), 0u);
}

TEST(Probes, NoFalsePositivesWithoutCycle) {
  Harness h;
  const GlobalTxnId t1 = h.NewTxn(model::TxnType::kDUC, 0);
  const GlobalTxnId t2 = h.NewTxn(model::TxnType::kDUC, 1);
  TxnState s1, s2;
  // T1: 5@0 then 7@1. T2: 7@1 then 9@0 (no cycle, just a wait).
  CrossSiteTxn(h, t1, 0, 5, 1, 7, &s1);
  CrossSiteTxn(h, t2, 1, 7, 0, 9, &s2);
  h.kernel.RunUntil(5'000.0);
  EXPECT_TRUE(s1.finished);
  EXPECT_TRUE(s2.finished);
  EXPECT_FALSE(s1.aborted);
  EXPECT_FALSE(s2.aborted);
  EXPECT_EQ(h.detector->global_deadlocks(), 0u);
}

TEST(Probes, LocalHoldersDoNotTriggerProbes) {
  Harness h;
  const GlobalTxnId local = h.NewTxn(model::TxnType::kLU, 0);
  const GlobalTxnId waiter = h.NewTxn(model::TxnType::kLU, 0);
  TxnState s1, s2;
  CrossSiteTxn(h, local, 0, 5, 0, 6, &s1);
  CrossSiteTxn(h, waiter, 0, 6, 0, 7, &s2);  // waits on `local`, no cycle
  h.kernel.RunUntil(1'000.0);
  EXPECT_EQ(h.detector->probes_sent(), 0u);
  EXPECT_EQ(h.detector->global_deadlocks(), 0u);
}

TEST(Probes, WatchdogCatchesRacedCycle) {
  // Force the race: disable the immediate on_block probes so only the
  // watchdog can find the cycle.
  Harness h;
  for (auto& node : h.nodes) {
    node->locks().on_block = [](GlobalTxnId,
                                const std::vector<GlobalTxnId>&) {};
  }
  h.detector->StartWatchdogs();
  const GlobalTxnId t1 = h.NewTxn(model::TxnType::kDUC, 0);
  const GlobalTxnId t2 = h.NewTxn(model::TxnType::kDUC, 1);
  TxnState s1, s2;
  CrossSiteTxn(h, t1, 0, 5, 1, 7, &s1);
  CrossSiteTxn(h, t2, 1, 7, 0, 5, &s2);
  h.kernel.RunUntil(5'000.0);
  EXPECT_TRUE(s1.finished);
  EXPECT_TRUE(s2.finished);
  EXPECT_NE(s1.aborted, s2.aborted);
  EXPECT_EQ(h.detector->global_deadlocks(), 1u);
}

TEST(Probes, ThreeNodeThreeCycleIsDetected) {
  Harness h(3);
  const GlobalTxnId t1 = h.NewTxn(model::TxnType::kDUC, 0);
  const GlobalTxnId t2 = h.NewTxn(model::TxnType::kDUC, 1);
  const GlobalTxnId t3 = h.NewTxn(model::TxnType::kDUC, 2);
  TxnState s1, s2, s3;
  // T1: 1@0 then 2@1; T2: 2@1 then 3@2; T3: 3@2 then 1@0.
  CrossSiteTxn(h, t1, 0, 1, 1, 2, &s1);
  CrossSiteTxn(h, t2, 1, 2, 2, 3, &s2);
  CrossSiteTxn(h, t3, 2, 3, 0, 1, &s3);
  h.kernel.RunUntil(10'000.0);
  EXPECT_TRUE(s1.finished);
  EXPECT_TRUE(s2.finished);
  EXPECT_TRUE(s3.finished);
  const int aborted = s1.aborted + s2.aborted + s3.aborted;
  EXPECT_EQ(aborted, 1);  // one victim suffices to break a 3-cycle
  EXPECT_GE(h.detector->global_deadlocks(), 1u);
}

}  // namespace
}  // namespace carat::txn
