// Concurrency-control backend suite (DESIGN.md §15).
//
// Pins the four cc::Backend policies end to end:
//   - determinism under contention: every backend's contended 4-node run
//     keeps the database consistent and repeats bit for bit;
//   - zero-contention equivalence: with only read locks in play the policies
//     cannot diverge — model observables are bitwise equal across all four
//     backends, testbed observables are bitwise equal across the three
//     lock-at-access backends, and queue (which sorts and dedups its granule
//     plan, so its event order legitimately differs) stays within noise;
//   - queue is deadlock-free by construction: a run contended enough to
//     thrash 2PL records zero deadlock victims and zero aborts, and commits
//     at least as much as 2PL;
//   - model-vs-testbed validation per backend on the four paper workloads,
//     under the established tolerance policy (2PL keeps the paper-era 25%
//     worst-node bound; the new backends run under wider bounds because
//     their submodels sit at optimistic fixed points under restart churn /
//     queue convoys — see cc_submodel.h);
//   - cache correctness: backends (and the restart backoff) participate in
//     serve::CanonicalKey and model::SolveShapeKey, so two backends on the
//     same scenario never coalesce or cache-alias.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "carat/testbed.h"
#include "cc/cc.h"
#include "fuzz/scenario.h"
#include "model/solver.h"
#include "serve/key.h"
#include "serve/solver_service.h"
#include "workload/spec.h"

namespace carat {
namespace {

using model::TxnType;

// The paper's four standard workloads at their published sizes.
struct PaperConfig {
  const char* name;
  workload::WorkloadSpec spec;
};

std::vector<PaperConfig> PaperConfigs() {
  return {{"lb8", workload::MakeLB8(8)},
          {"mb4", workload::MakeMB4(8)},
          {"mb8", workload::MakeMB8(8)},
          {"ub6", workload::MakeUB6(6)}};
}

// A 4-site, 150-granule MB8 mix: hot enough that 2PL spends the window
// aborting deadlock victims, which is exactly where the backends separate.
workload::WorkloadSpec ContendedSpec(cc::BackendKind kind) {
  workload::WorkloadSpec spec = workload::MakeMB8(8, 4);
  spec.comm_delay_ms = 5.0;
  spec.num_granules = 150;
  spec.cc_backend = kind;
  return spec;
}

TestbedResult RunContended(cc::BackendKind kind) {
  TestbedOptions opt;
  opt.seed = 3;
  opt.warmup_ms = 10'000;
  opt.measure_ms = 100'000;
  return RunTestbed(ContendedSpec(kind).ToModelInput(), opt);
}

std::uint64_t TotalCommits(const TestbedResult& r) {
  std::uint64_t commits = 0;
  for (const NodeResult& node : r.nodes) {
    for (const TypeResult& t : node.types) commits += t.commits;
  }
  return commits;
}

std::uint64_t TotalAborts(const TestbedResult& r) {
  std::uint64_t aborts = 0;
  for (const NodeResult& node : r.nodes) {
    for (const TypeResult& t : node.types) aborts += t.aborts;
  }
  return aborts;
}

std::uint64_t TotalDeadlocks(const TestbedResult& r) {
  std::uint64_t deadlocks = r.global_deadlocks;
  for (const NodeResult& node : r.nodes) deadlocks += node.local_deadlocks;
  return deadlocks;
}

// Bitwise double equality: the determinism and equivalence claims here are
// exact, not approximate, so tolerance-based comparison would be too weak.
bool SameBits(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

// The measurements a user of the testbed observes (everything except
// protocol-internal counters like the event count, which legitimately
// differ between lock-at-access and queue-at-submit machinery).
void ExpectSameObservables(const TestbedResult& a, const TestbedResult& b,
                           const std::string& label) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << label;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const NodeResult& na = a.nodes[i];
    const NodeResult& nb = b.nodes[i];
    EXPECT_TRUE(SameBits(na.txn_per_s, nb.txn_per_s)) << label << " node " << i;
    EXPECT_TRUE(SameBits(na.records_per_s, nb.records_per_s)) << label;
    EXPECT_TRUE(SameBits(na.cpu_utilization, nb.cpu_utilization)) << label;
    EXPECT_TRUE(SameBits(na.dio_per_s, nb.dio_per_s)) << label;
    for (const TxnType t : model::kAllTxnTypes) {
      const TypeResult& ta = na.Type(t);
      const TypeResult& tb = nb.Type(t);
      EXPECT_EQ(ta.commits, tb.commits) << label << " node " << i;
      EXPECT_EQ(ta.aborts, tb.aborts) << label;
      EXPECT_EQ(ta.submissions, tb.submissions) << label;
      EXPECT_TRUE(SameBits(ta.response_ms, tb.response_ms)) << label;
      EXPECT_TRUE(SameBits(ta.lock_wait_ms, tb.lock_wait_ms)) << label;
    }
  }
}

TEST(CcBackends, ContendedRunsAreConsistentAndRepeatable) {
  for (const cc::BackendKind kind : cc::kAllBackends) {
    const TestbedResult first = RunContended(kind);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_TRUE(first.database_consistent) << cc::Name(kind);
    const TestbedResult second = RunContended(kind);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(TestbedResultFingerprint(second), TestbedResultFingerprint(first))
        << cc::Name(kind) << " diverges between two runs of one seed";
  }
}

TEST(CcBackends, ZeroContentionBackendsAgree) {
  // Read-only users never hold a write lock, so no policy has a conflict to
  // resolve: every backend must report the same system.
  workload::WorkloadSpec base = workload::MakeMB8(8, 2);
  for (workload::NodeMix& mix : base.nodes) {
    mix.lro = 4;
    mix.lu = 0;
    mix.dro = 2;
    mix.du = 0;
  }

  TestbedOptions opt;
  opt.seed = 7;
  opt.warmup_ms = 10'000;
  opt.measure_ms = 200'000;

  workload::WorkloadSpec ref_spec = base;
  ref_spec.cc_backend = cc::BackendKind::k2PL;
  const model::ModelInput ref_input = ref_spec.ToModelInput();
  const TestbedResult ref_tb = RunTestbed(ref_input, opt);
  ASSERT_TRUE(ref_tb.ok) << ref_tb.error;
  const model::ModelSolution ref_m = model::CaratModel(ref_input).Solve();
  ASSERT_TRUE(ref_m.ok) << ref_m.error;

  for (const cc::BackendKind kind :
       {cc::BackendKind::kNoWait, cc::BackendKind::kWaitDie,
        cc::BackendKind::kQueue}) {
    workload::WorkloadSpec spec = base;
    spec.cc_backend = kind;
    const model::ModelInput input = spec.ToModelInput();
    const std::string label = std::string(cc::Name(kind));

    // Model observables are bitwise equal for every backend: Pb = 0 makes
    // the per-backend submodels produce identical demands.
    const model::ModelSolution m = model::CaratModel(input).Solve();
    ASSERT_TRUE(m.ok) << m.error;
    for (std::size_t i = 0; i < ref_m.sites.size(); ++i) {
      EXPECT_TRUE(SameBits(m.sites[i].txn_per_s, ref_m.sites[i].txn_per_s))
          << label << " site " << i;
      EXPECT_TRUE(
          SameBits(m.sites[i].cpu_utilization, ref_m.sites[i].cpu_utilization))
          << label;
      for (const TxnType t : model::kAllTxnTypes) {
        EXPECT_TRUE(SameBits(m.sites[i].Class(t).throughput_per_s,
                             ref_m.sites[i].Class(t).throughput_per_s))
            << label;
        EXPECT_TRUE(
            SameBits(m.sites[i].Class(t).pa, ref_m.sites[i].Class(t).pa))
            << label;
        EXPECT_TRUE(SameBits(m.sites[i].Class(t).d_lw_ms,
                             ref_m.sites[i].Class(t).d_lw_ms))
            << label;
      }
    }

    const TestbedResult tb = RunTestbed(input, opt);
    ASSERT_TRUE(tb.ok) << tb.error;
    ASSERT_TRUE(tb.database_consistent) << label;
    EXPECT_EQ(TotalAborts(tb), 0u) << label;
    EXPECT_EQ(TotalDeadlocks(tb), 0u) << label;
    if (kind == cc::BackendKind::kQueue) {
      // Queue sorts + dedups each node's granule plan, so its event order
      // (and thus exact commit timing) differs; throughput must still match
      // the lock-at-access backends to well under the run's noise floor.
      EXPECT_NEAR(tb.TotalTxnPerSec(), ref_tb.TotalTxnPerSec(),
                  0.05 * ref_tb.TotalTxnPerSec())
          << label;
    } else {
      // No conflicts ever fire, so the restart backends execute the exact
      // event trajectory of 2PL.
      ExpectSameObservables(tb, ref_tb, label);
    }
  }
}

TEST(CcBackends, QueueRecordsZeroDeadlocksWhereTwoPhaseLockingThrashes) {
  const TestbedResult two_pl = RunContended(cc::BackendKind::k2PL);
  ASSERT_TRUE(two_pl.ok) << two_pl.error;
  ASSERT_TRUE(two_pl.database_consistent);
  // The contention tier is only meaningful if 2PL is actually thrashing.
  ASSERT_GT(TotalDeadlocks(two_pl), 0u);
  ASSERT_GT(TotalAborts(two_pl), TotalCommits(two_pl));

  const TestbedResult queue = RunContended(cc::BackendKind::kQueue);
  ASSERT_TRUE(queue.ok) << queue.error;
  ASSERT_TRUE(queue.database_consistent);
  EXPECT_EQ(TotalDeadlocks(queue), 0u);
  EXPECT_EQ(queue.probes_sent, 0u);
  EXPECT_EQ(TotalAborts(queue), 0u);
  EXPECT_GT(TotalCommits(queue), 0u);
  // Deterministic ordered execution wastes no work on victims, so it cannot
  // commit less than a thrashing 2PL.
  EXPECT_GE(TotalCommits(queue), TotalCommits(two_pl));
}

// FNV-1a 64 of a fingerprint string: a short constant to pin it by.
std::uint64_t Fnv1a64(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(CcBackends, ModelSolutionFingerprintAnchors) {
  // Every bit of the paper workloads' model solutions, per backend, pinned
  // across builds: a solver change that moves one ulp anywhere (throughput,
  // Pb, a residence time, an iteration count) changes the hash. Captured
  // before the exact MVA kernel went queueing-centers-only; the kernel must
  // reproduce them exactly.
  const std::uint64_t kAnchors[4][4] = {
      // 2pl, nowait, waitdie, queue
      {0x580ee030182742a8ull, 0xf1149aa3ea7db8a5ull, 0x185158479a80ae4dull,
       0x45c58f63b96d84b7ull},  // lb8
      {0x400fcfa15b389397ull, 0x4a44cba94ede3bb1ull, 0x8b0ef35c497ba9b5ull,
       0x8ea40cf61fb95025ull},  // mb4
      {0x80c6f8ff3a34d52full, 0x213b4400d0ccffe8ull, 0x4d584864b14c3aa0ull,
       0x1bb7574f4a2848faull},  // mb8
      {0x40947c14a57130fbull, 0x77e8cfbaca91dadeull, 0x6e70943957015db5ull,
       0xd21c74024bd29a31ull},  // ub6
  };
  const std::vector<PaperConfig> configs = PaperConfigs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    for (std::size_t b = 0; b < cc::kAllBackends.size(); ++b) {
      workload::WorkloadSpec spec = configs[i].spec;
      spec.cc_backend = cc::kAllBackends[b];
      const model::ModelSolution sol =
          model::CaratModel(spec.ToModelInput()).Solve();
      ASSERT_TRUE(sol.ok) << sol.error;
      EXPECT_EQ(Fnv1a64(fuzz::ModelSolutionFingerprint(sol)), kAnchors[i][b])
          << configs[i].name << " / " << cc::Name(cc::kAllBackends[b]);
    }
  }
}

TEST(CcBackends, ModelTracksTestbedPerBackendOnThePaperWorkloads) {
  // Established tolerance policy (see the validation calibration in
  // DESIGN.md §15): 2PL keeps the paper-era 25% worst-node bound; queue
  // runs under 40% (testbed queue convoys put ~30% between the two nodes
  // themselves on mb8); the restart backends run under 45% (their submodel
  // sits at an optimistic fixed point under restart churn). The runs are
  // deterministic, so these bounds are regression pins, not statistics.
  auto tolerance = [](cc::BackendKind kind) {
    switch (kind) {
      case cc::BackendKind::k2PL:
        return 0.25;
      case cc::BackendKind::kQueue:
        return 0.40;
      default:
        return 0.45;
    }
  };

  for (const cc::BackendKind kind : cc::kAllBackends) {
    for (const PaperConfig& config : PaperConfigs()) {
      workload::WorkloadSpec spec = config.spec;
      spec.cc_backend = kind;
      const model::ModelInput input = spec.ToModelInput();

      TestbedOptions opt;
      opt.seed = 1;
      opt.warmup_ms = 50'000;
      opt.measure_ms = 800'000;
      const TestbedResult tb = RunTestbed(input, opt);
      ASSERT_TRUE(tb.ok) << tb.error;
      ASSERT_TRUE(tb.database_consistent)
          << cc::Name(kind) << " " << config.name;

      const model::ModelSolution m = model::CaratModel(input).Solve();
      ASSERT_TRUE(m.ok) << cc::Name(kind) << " " << config.name << ": "
                        << m.error;
      ASSERT_TRUE(m.converged) << cc::Name(kind) << " " << config.name;

      for (std::size_t i = 0; i < tb.nodes.size(); ++i) {
        const double measured = tb.nodes[i].txn_per_s;
        ASSERT_GT(measured, 0.0) << cc::Name(kind) << " " << config.name;
        const double rel =
            std::abs(m.sites[i].txn_per_s - measured) / measured;
        EXPECT_LE(rel, tolerance(kind))
            << cc::Name(kind) << " " << config.name << " node " << i
            << ": model " << m.sites[i].txn_per_s << " vs testbed "
            << measured;
      }
    }
  }
}

TEST(CcCache, BackendsNeverCacheAliasOrCoalesce) {
  const workload::WorkloadSpec base = workload::MakeMB8(8, 2);
  const model::SolverOptions solver_options;

  // Key separation: every backend pair keys differently in both the
  // solution cache (CanonicalKey) and the arena/batch shape grouping
  // (SolveShapeKey), on an otherwise identical input.
  for (const cc::BackendKind a : cc::kAllBackends) {
    for (const cc::BackendKind b : cc::kAllBackends) {
      if (a == b) continue;
      workload::WorkloadSpec sa = base;
      sa.cc_backend = a;
      workload::WorkloadSpec sb = base;
      sb.cc_backend = b;
      EXPECT_NE(serve::CanonicalKey(sa.ToModelInput(), solver_options),
                serve::CanonicalKey(sb.ToModelInput(), solver_options))
          << cc::Name(a) << " vs " << cc::Name(b);
      EXPECT_NE(model::SolveShapeKey(sa.ToModelInput()),
                model::SolveShapeKey(sb.ToModelInput()))
          << cc::Name(a) << " vs " << cc::Name(b);
    }
  }

  // The restart backoff is a submodel input like any other: two no-wait
  // queries differing only in backoff must not alias either.
  {
    workload::WorkloadSpec spec = base;
    spec.cc_backend = cc::BackendKind::kNoWait;
    model::ModelInput input_a = spec.ToModelInput();
    model::ModelInput input_b = input_a;
    input_b.restart_backoff_ms = 2.0 * input_a.restart_backoff_ms;
    EXPECT_NE(serve::CanonicalKey(input_a, solver_options),
              serve::CanonicalKey(input_b, solver_options));
  }

  // End to end through the service: 2pl / queue / 2pl again. The repeat hits
  // the cache; the queue query must not — and the two backends' solutions
  // are genuinely different fixed points.
  serve::SolverService::Options options;
  options.threads = 1;
  options.warm_start = false;
  serve::SolverService service(std::move(options));
  workload::WorkloadSpec two_pl = base;
  two_pl.cc_backend = cc::BackendKind::k2PL;
  workload::WorkloadSpec queue = base;
  queue.cc_backend = cc::BackendKind::kQueue;

  const model::ModelSolution first =
      service.SolveSync(two_pl.ToModelInput());
  const model::ModelSolution second = service.SolveSync(queue.ToModelInput());
  const model::ModelSolution repeat =
      service.SolveSync(two_pl.ToModelInput());
  ASSERT_TRUE(first.ok && second.ok && repeat.ok);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solved, 2u);      // 2pl and queue each solved once
  EXPECT_EQ(stats.cache_hits, 1u);  // only the literal 2pl repeat replays
  EXPECT_EQ(fuzz::ModelSolutionFingerprint(first),
            fuzz::ModelSolutionFingerprint(repeat));
  EXPECT_NE(fuzz::ModelSolutionFingerprint(first),
            fuzz::ModelSolutionFingerprint(second));
}

}  // namespace
}  // namespace carat
