// Multi-process loopback runs of the distributed testbed (src/dist): the
// coordinator spawns real carat_sited processes, walks the handshake,
// cross-checks the aggregate against the in-process RunTestbed reference,
// and drives the open-loop load generator against the live sites. The runs
// are wall-clock bound (each site scales virtual time by `scale` real ms
// per virtual ms), so windows are kept short and the tolerance work is
// delegated to the coordinator's calibrated bounds: ctest -L dist

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/coordinator.h"
#include "dist/loadgen.h"
#include "dist/runtime.h"

namespace carat {
namespace {

// ---- Multi-process loopback runs (ctest -L dist) ---------------------------

dist::DistRunOptions BaseE2eOptions() {
  dist::DistRunOptions options;
  options.config.scale = 0.1;
  options.config.seed = 20260808;
  options.warmup_real_ms = 800.0;
  options.measure_real_ms = 2500.0;
  options.sited_bin = dist::ResolveSitedBinary();
  return options;
}

TEST(DistE2e, TwoSiteCrossCheckAgainstTheReference) {
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "mb8";
  options.config.requests_per_txn = 8;
  options.config.sites = 2;

  const auto result = dist::RunDistributed(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.all_drained);
  EXPECT_TRUE(result.all_audits_ok);
  EXPECT_GT(result.commits, 0u);
  EXPECT_GT(result.messages_sent, 0u);  // mb8 crosses sites
  EXPECT_GT(result.alpha_virtual_ms, 0.0);
  ASSERT_TRUE(result.checked);
  EXPECT_TRUE(result.within_tolerance)
      << "throughput err " << result.throughput_rel_err << ", response err "
      << result.response_rel_err << ", restart err " << result.restart_abs_err;
}

TEST(DistE2e, FourSiteAllLocalWorkloadStaysQuiet) {
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "lb8";
  options.config.requests_per_txn = 8;
  options.config.sites = 4;
  options.measure_real_ms = 2000.0;

  const auto result = dist::RunDistributed(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.all_drained);
  EXPECT_TRUE(result.all_audits_ok);
  EXPECT_GT(result.commits, 0u);
  EXPECT_EQ(result.global_deadlocks, 0u);  // all-local: no cross-site cycles
  ASSERT_TRUE(result.checked);
  EXPECT_TRUE(result.within_tolerance)
      << "throughput err " << result.throughput_rel_err << ", response err "
      << result.response_rel_err << ", restart err " << result.restart_abs_err;
}

TEST(DistE2e, ContendedRunDetectsGlobalDeadlocksAndStaysConsistent) {
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "mb8";
  options.config.requests_per_txn = 8;
  options.config.sites = 2;
  // Small database: cross-site cycles form reliably (4-14 per run across
  // seeds) while the drain cascade still resolves in a couple of seconds.
  // Far smaller databases (e.g. 48 granules) wind up so hard that victim
  // rollback + re-probe cascades can outlast the coordinator's DRAINED
  // deadline on a loaded machine.
  options.config.num_granules = 160;
  options.measure_real_ms = 2000.0;
  options.check = false;  // the reference tolerance is calibrated uncontended

  const auto result = dist::RunDistributed(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.all_drained);
  EXPECT_TRUE(result.all_audits_ok);  // every probe victim rolled back cleanly
  EXPECT_GT(result.global_deadlocks, 0u);
  EXPECT_GT(result.dist_restart_prob, 0.0);
}

TEST(DistE2e, LoadgenDrivesOpenLoopTrafficWithMergedHistograms) {
  auto options = BaseE2eOptions();
  if (options.sited_bin.empty()) GTEST_SKIP() << "carat_sited not built";
  options.config.workload = "mb8";
  options.config.requests_per_txn = 8;
  options.config.sites = 2;
  options.config.spawn_users = false;  // external traffic only
  options.check = false;
  options.measure_real_ms = 2500.0;

  dist::LoadgenResult load;
  options.during_measure = [&](const std::vector<std::string>& endpoints) {
    // Let every site pass its warm-up ResetStats first, so the sites'
    // ext_commits counters see the whole load-generator run.
    dist::RtClock::SleepRealMs(options.warmup_real_ms + 300.0);
    dist::LoadgenOptions lg;
    lg.targets = endpoints;
    lg.connections = 2;
    lg.ops_per_txn = 4;
    lg.type = "mix";
    lg.rate_per_s = 60.0;
    lg.duration_s = 1.5;
    load = dist::RunLoadgen(lg);
  };

  const auto result = dist::RunDistributed(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.all_drained);
  EXPECT_TRUE(result.all_audits_ok);
  EXPECT_EQ(result.commits, 0u);  // no resident users were spawned

  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_GT(load.scheduled, 0u);
  EXPECT_EQ(load.completed, load.scheduled);
  EXPECT_EQ(load.errors, 0u);
  EXPECT_GT(load.committed, 0u);
  EXPECT_EQ(load.histogram.count(), load.completed);
  EXPECT_GT(load.p50_ms, 0.0);
  EXPECT_GE(load.p99_ms, load.p50_ms);
  // Sites account the external transactions they served.
  EXPECT_EQ(result.ext_commits, load.committed);
}

}  // namespace
}  // namespace carat
