#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qn/bounds.h"
#include "qn/ethernet.h"
#include "qn/mva.h"
#include "qn/network.h"
#include "util/random.h"

namespace carat::qn {
namespace {

// Single-chain machine-repairman (M/M/1//N with think time): closed-form
// check via the recursive MVA identity computed independently here.
double MachineRepairmanThroughput(int population, double demand, double think) {
  double q = 0.0, x = 0.0;
  for (int n = 1; n <= population; ++n) {
    const double r = demand * (1.0 + q);
    x = n / (think + r);
    q = x * r;
  }
  return x;
}

TEST(ExactMva, MatchesMachineRepairman) {
  for (int pop : {1, 2, 5, 20}) {
    ClosedNetwork net;
    const std::size_t c = net.AddCenter("cpu", CenterKind::kQueueing);
    const std::size_t k = net.AddChain("jobs", pop, /*think_time=*/50.0);
    net.chains[k].demands[c] = 10.0;
    MvaResult res = ExactMva(net);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_NEAR(res.solution.throughput[k],
                MachineRepairmanThroughput(pop, 10.0, 50.0), 1e-12);
  }
}

TEST(ExactMva, DelayOnlyNetworkIsPopulationOverDemand) {
  ClosedNetwork net;
  const std::size_t d = net.AddCenter("delay", CenterKind::kDelay);
  const std::size_t k = net.AddChain("jobs", 7, 3.0);
  net.chains[k].demands[d] = 11.0;
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(res.solution.throughput[k], 7.0 / (3.0 + 11.0), 1e-12);
  EXPECT_NEAR(res.solution.response_time[k], 11.0, 1e-12);
}

TEST(ExactMva, SingleCustomerSeesNoQueueing) {
  // With population 1 the response time is just the total demand.
  ClosedNetwork net;
  const std::size_t c1 = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t c2 = net.AddCenter("disk", CenterKind::kQueueing);
  const std::size_t k = net.AddChain("jobs", 1, 0.0);
  net.chains[k].demands[c1] = 4.0;
  net.chains[k].demands[c2] = 6.0;
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(res.solution.response_time[k], 10.0, 1e-12);
  EXPECT_NEAR(res.solution.throughput[k], 0.1, 1e-12);
}

TEST(ExactMva, UtilizationLawHolds) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("disk", CenterKind::kQueueing);
  const std::size_t a = net.AddChain("a", 3, 10.0);
  const std::size_t b = net.AddChain("b", 2, 5.0);
  net.chains[a].demands[cpu] = 2.0;
  net.chains[a].demands[disk] = 8.0;
  net.chains[b].demands[cpu] = 5.0;
  net.chains[b].demands[disk] = 1.0;
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok);
  const auto& s = res.solution;
  EXPECT_NEAR(s.utilization[cpu],
              s.throughput[a] * 2.0 + s.throughput[b] * 5.0, 1e-12);
  EXPECT_NEAR(s.utilization[disk],
              s.throughput[a] * 8.0 + s.throughput[b] * 1.0, 1e-12);
  EXPECT_LE(s.utilization[cpu], 1.0 + 1e-12);
  EXPECT_LE(s.utilization[disk], 1.0 + 1e-12);
}

TEST(ExactMva, LittleLawAtEachCenter) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t dly = net.AddCenter("dly", CenterKind::kDelay);
  const std::size_t a = net.AddChain("a", 4, 0.0);
  const std::size_t b = net.AddChain("b", 3, 2.0);
  net.chains[a].demands[cpu] = 3.0;
  net.chains[a].demands[dly] = 7.0;
  net.chains[b].demands[cpu] = 1.0;
  net.chains[b].demands[dly] = 4.0;
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok);
  const auto& s = res.solution;
  for (std::size_t m = 0; m < net.centers.size(); ++m) {
    double expect = 0.0;
    for (std::size_t k = 0; k < net.chains.size(); ++k)
      expect += s.throughput[k] * s.residence[k][m];
    EXPECT_NEAR(s.queue_length[m], expect, 1e-12);
  }
  // Total customers in network + in think must equal the populations.
  double total = 0.0;
  for (std::size_t m = 0; m < net.centers.size(); ++m)
    total += s.queue_length[m];
  total += s.throughput[a] * net.chains[a].think_time;
  total += s.throughput[b] * net.chains[b].think_time;
  EXPECT_NEAR(total, 7.0, 1e-9);
}

TEST(ExactMva, ThroughputMonotonicInPopulation) {
  double prev = 0.0;
  for (int pop = 1; pop <= 12; ++pop) {
    ClosedNetwork net;
    const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
    const std::size_t disk = net.AddCenter("disk", CenterKind::kQueueing);
    const std::size_t k = net.AddChain("jobs", pop, 4.0);
    net.chains[k].demands[cpu] = 2.0;
    net.chains[k].demands[disk] = 3.0;
    MvaResult res = ExactMva(net);
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.solution.throughput[k], prev);
    // Bounded by the bottleneck: X <= 1 / D_max.
    EXPECT_LE(res.solution.throughput[k], 1.0 / 3.0 + 1e-12);
    prev = res.solution.throughput[k];
  }
}

TEST(ExactMva, ZeroPopulationChainContributesNothing) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t a = net.AddChain("a", 0, 0.0);
  const std::size_t b = net.AddChain("b", 2, 1.0);
  net.chains[a].demands[cpu] = 100.0;
  net.chains[b].demands[cpu] = 2.0;
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok);
  EXPECT_DOUBLE_EQ(res.solution.throughput[a], 0.0);
  EXPECT_GT(res.solution.throughput[b], 0.0);
}

TEST(ExactMva, RejectsOversizedLattice) {
  ClosedNetwork net;
  net.AddCenter("cpu", CenterKind::kQueueing);
  for (int k = 0; k < 12; ++k) {
    const std::size_t c = net.AddChain("k", 9, 0.0);
    net.chains[c].demands[0] = 1.0;
  }
  MvaResult res = ExactMva(net, /*max_states=*/1000);
  EXPECT_FALSE(res.ok);
}

TEST(SchweitzerMva, CloseToExactOnMultichainNetwork) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("disk", CenterKind::kQueueing);
  const std::size_t a = net.AddChain("a", 6, 10.0);
  const std::size_t b = net.AddChain("b", 4, 20.0);
  net.chains[a].demands[cpu] = 3.0;
  net.chains[a].demands[disk] = 5.0;
  net.chains[b].demands[cpu] = 6.0;
  net.chains[b].demands[disk] = 2.0;
  MvaResult exact = ExactMva(net);
  MvaResult approx = SchweitzerMva(net);
  ASSERT_TRUE(exact.ok);
  ASSERT_TRUE(approx.ok);
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    EXPECT_NEAR(approx.solution.throughput[k], exact.solution.throughput[k],
                0.05 * exact.solution.throughput[k]);
  }
}

// A contended multi-chain network in the Schweitzer regime: large enough
// populations that the fixed point takes a meaningful number of iterations.
ClosedNetwork MakeContendedNetwork(int population) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("disk", CenterKind::kQueueing);
  const std::size_t log = net.AddCenter("log", CenterKind::kQueueing);
  const double demands[4][3] = {
      {3.0, 5.0, 1.0}, {6.0, 2.0, 2.5}, {1.5, 7.5, 0.5}, {4.0, 4.0, 3.0}};
  for (int k = 0; k < 4; ++k) {
    const std::size_t c =
        net.AddChain("k" + std::to_string(k), population, 25.0 * (k + 1));
    net.chains[c].demands[cpu] = demands[k][0];
    net.chains[c].demands[disk] = demands[k][1];
    net.chains[c].demands[log] = demands[k][2];
  }
  return net;
}

TEST(SchweitzerMva, InitialQkmWarmStartReachesSameFixedPointFaster) {
  const ClosedNetwork net = MakeContendedNetwork(/*population=*/32);

  // Cold solve through the workspace API, which retains the converged
  // per-(chain, center) queue lengths.
  MvaWorkspace ws;
  ASSERT_TRUE(SchweitzerMvaInPlace(net, &ws));
  const MvaResult cold = SchweitzerMva(net);
  ASSERT_TRUE(cold.ok);
  ASSERT_GT(cold.iterations, 3);  // the warm start must have room to help

  // Re-solving seeded with the converged queue lengths must land on the
  // same fixed point in strictly fewer iterations.
  const std::vector<double> converged_qkm = ws.qkm;
  const MvaResult warm = SchweitzerMva(net, /*tolerance=*/1e-9,
                                       /*max_iterations=*/10000,
                                       &converged_qkm);
  ASSERT_TRUE(warm.ok);
  EXPECT_LT(warm.iterations, cold.iterations);
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    EXPECT_NEAR(warm.solution.throughput[k], cold.solution.throughput[k],
                1e-7 * cold.solution.throughput[k]);
    EXPECT_NEAR(warm.solution.response_time[k], cold.solution.response_time[k],
                1e-6 * cold.solution.response_time[k]);
  }
}

TEST(SchweitzerMva, NeighborQkmSeedHelpsAcrossParameterPoints) {
  // Seed population-34's solve with population-32's converged state — the
  // cross-sweep-point pattern the serving layer uses.
  MvaWorkspace ws;
  ASSERT_TRUE(SchweitzerMvaInPlace(MakeContendedNetwork(32), &ws));
  const std::vector<double> neighbor_qkm = ws.qkm;

  const ClosedNetwork target = MakeContendedNetwork(34);
  const MvaResult cold = SchweitzerMva(target);
  const MvaResult warm = SchweitzerMva(target, /*tolerance=*/1e-9,
                                       /*max_iterations=*/10000,
                                       &neighbor_qkm);
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(warm.ok);
  EXPECT_LT(warm.iterations, cold.iterations);
  for (std::size_t k = 0; k < target.chains.size(); ++k) {
    EXPECT_NEAR(warm.solution.throughput[k], cold.solution.throughput[k],
                1e-7 * cold.solution.throughput[k]);
  }
}

TEST(SchweitzerMva, MismatchedInitialQkmFallsBackToColdStart) {
  const ClosedNetwork net = MakeContendedNetwork(32);
  const MvaResult cold = SchweitzerMva(net);
  ASSERT_TRUE(cold.ok);
  const std::vector<double> wrong_size(3, 0.5);  // needs chains x centers
  const MvaResult fallback = SchweitzerMva(net, /*tolerance=*/1e-9,
                                           /*max_iterations=*/10000,
                                           &wrong_size);
  ASSERT_TRUE(fallback.ok);
  // Identical to a cold solve: same iteration count, same results.
  EXPECT_EQ(fallback.iterations, cold.iterations);
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    EXPECT_EQ(fallback.solution.throughput[k], cold.solution.throughput[k]);
  }
}

TEST(SolveMva, FallsBackToSchweitzerAboveLimit) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  for (int k = 0; k < 10; ++k) {
    const std::size_t c = net.AddChain("k" + std::to_string(k), 8, 5.0);
    net.chains[c].demands[cpu] = 1.0 + k * 0.1;
  }
  MvaResult res = SolveMva(net, /*exact_state_limit=*/1000);
  ASSERT_TRUE(res.ok);
  for (double x : res.solution.throughput) EXPECT_GT(x, 0.0);
  EXPECT_LE(res.solution.utilization[cpu], 1.0 + 1e-9);
}

// ---- Bitwise reference for the exact kernel -------------------------------
// The all-centers exact MVA recursion: the lattice holds a queue length for
// every center, and every center's residence is demands[m] * (1 + qmul[m] *
// q[m]) with qmul[m] = 0 at delay centers. ExactMvaInPlace skips the delay
// centers' lattice entries; its solutions must match this loop bit for bit
// (the target is compiled with -ffp-contract=off, like carat_qn).
Solution ReferenceExactMva(const ClosedNetwork& net) {
  const std::size_t num_chains = net.chains.size();
  const std::size_t num_centers = net.centers.size();
  std::size_t num_states = 0;
  EXPECT_TRUE(JointLatticeStates(net, std::size_t{1} << 22, &num_states));
  std::vector<std::size_t> dims(num_chains), strides(num_chains);
  std::size_t stride = 1;
  for (std::size_t k = 0; k < num_chains; ++k) {
    dims[k] = static_cast<std::size_t>(net.chains[k].population) + 1;
    strides[k] = stride;
    stride *= dims[k];
  }
  std::vector<double> qmul;
  internal::FillQueueingMask(net, &qmul);
  std::vector<double> q(num_states * num_centers, 0.0);
  std::vector<std::size_t> n(num_chains, 0);
  std::vector<double> x(num_chains, 0.0);
  std::vector<double> residence(num_chains * num_centers, 0.0);

  for (std::size_t state = 1; state < num_states; ++state) {
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (++n[k] < dims[k]) break;
      n[k] = 0;
    }
    for (std::size_t k = 0; k < num_chains; ++k) x[k] = 0.0;
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (n[k] == 0) continue;
      const Chain& chain = net.chains[k];
      const double* qprev = q.data() + (state - strides[k]) * num_centers;
      double* res = residence.data() + k * num_centers;
      for (std::size_t m = 0; m < num_centers; ++m)
        res[m] = chain.demands[m] * (1.0 + qmul[m] * qprev[m]);
      double total = 0.0;
      for (std::size_t m = 0; m < num_centers; ++m) total += res[m];
      const double denom = chain.think_time + total;
      x[k] = denom > 0.0 ? static_cast<double>(n[k]) / denom : 0.0;
    }
    double* qhere = q.data() + state * num_centers;
    for (std::size_t m = 0; m < num_centers; ++m) qhere[m] = 0.0;
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (n[k] == 0) continue;
      const double* res = residence.data() + k * num_centers;
      for (std::size_t m = 0; m < num_centers; ++m) qhere[m] += x[k] * res[m];
    }
  }

  if (num_states == 1) {
    std::fill(x.begin(), x.end(), 0.0);
    std::fill(residence.begin(), residence.end(), 0.0);
  } else {
    for (std::size_t k = 0; k < num_chains; ++k) {
      const Chain& chain = net.chains[k];
      double* res = residence.data() + k * num_centers;
      if (chain.population == 0) {
        x[k] = 0.0;
        for (std::size_t m = 0; m < num_centers; ++m) res[m] = 0.0;
        continue;
      }
      const double* qprev =
          q.data() + (num_states - 1 - strides[k]) * num_centers;
      for (std::size_t m = 0; m < num_centers; ++m)
        res[m] = chain.demands[m] * (1.0 + qmul[m] * qprev[m]);
      double total = 0.0;
      for (std::size_t m = 0; m < num_centers; ++m) total += res[m];
      const double denom = chain.think_time + total;
      x[k] = denom > 0.0 ? chain.population / denom : 0.0;
    }
  }
  Solution sol;
  internal::FinishSolution(net, x, residence, &sol);
  return sol;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void ExpectBitIdentical(const Solution& got, const Solution& want,
                        const std::string& where) {
  ASSERT_EQ(got.throughput.size(), want.throughput.size()) << where;
  ASSERT_EQ(got.queue_length.size(), want.queue_length.size()) << where;
  for (std::size_t k = 0; k < want.throughput.size(); ++k) {
    EXPECT_TRUE(SameBits(got.throughput[k], want.throughput[k]))
        << where << " throughput[" << k << "]";
    EXPECT_TRUE(SameBits(got.response_time[k], want.response_time[k]))
        << where << " response_time[" << k << "]";
    for (std::size_t m = 0; m < want.queue_length.size(); ++m) {
      EXPECT_TRUE(SameBits(got.residence[k][m], want.residence[k][m]))
          << where << " residence[" << k << "][" << m << "]";
    }
  }
  for (std::size_t m = 0; m < want.queue_length.size(); ++m) {
    EXPECT_TRUE(SameBits(got.queue_length[m], want.queue_length[m]))
        << where << " queue_length[" << m << "]";
    EXPECT_TRUE(SameBits(got.utilization[m], want.utilization[m]))
        << where << " utilization[" << m << "]";
  }
}

// A random network with `queueing` queueing and `delay` delay centers, in
// queueing-first order or shuffled. Populations may be zero and about one
// demand in five is zero.
ClosedNetwork RandomKernelNetwork(util::Rng* rng, std::size_t queueing,
                                  std::size_t delay, bool queueing_first) {
  std::vector<CenterKind> kinds(queueing, CenterKind::kQueueing);
  kinds.resize(queueing + delay, CenterKind::kDelay);
  if (!queueing_first) {
    for (std::size_t m = kinds.size(); m > 1; --m)
      std::swap(kinds[m - 1], kinds[rng->NextBounded(m)]);
  }
  ClosedNetwork net;
  for (std::size_t m = 0; m < kinds.size(); ++m)
    net.AddCenter("c" + std::to_string(m), kinds[m]);
  const std::size_t num_chains = 1 + rng->NextBounded(4);
  for (std::size_t k = 0; k < num_chains; ++k) {
    const std::size_t c = net.AddChain(
        "k" + std::to_string(k), static_cast<int>(rng->NextBounded(5)),
        rng->NextDouble() < 0.25 ? 0.0 : rng->NextDouble() * 50.0);
    for (double& d : net.chains[c].demands)
      d = rng->NextDouble() < 0.2 ? 0.0 : rng->NextDouble() * 20.0;
  }
  return net;
}

TEST(ExactMvaKernel, BitIdenticalToAllCentersReference) {
  util::Rng rng(20260419);
  MvaWorkspace reused;  // warm across shapes, like the model's workspaces
  int interleaved = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t queueing = static_cast<std::size_t>(trial % 5);  // 0-4
    const std::size_t delay = rng.NextBounded(5);
    const bool first = trial % 2 == 0;
    const ClosedNetwork net =
        RandomKernelNetwork(&rng, queueing, delay, first);
    for (std::size_t m = 1; m < net.centers.size(); ++m) {
      interleaved += net.centers[m - 1].kind == CenterKind::kDelay &&
                     net.centers[m].kind == CenterKind::kQueueing;
    }
    const Solution want = ReferenceExactMva(net);
    MvaWorkspace fresh;
    ASSERT_TRUE(ExactMvaInPlace(net, &fresh));
    ASSERT_TRUE(ExactMvaInPlace(net, &reused));
    const std::string where = "trial " + std::to_string(trial);
    ExpectBitIdentical(fresh.solution, want, where + " (fresh)");
    ExpectBitIdentical(reused.solution, want, where + " (reused)");
    EXPECT_EQ(fresh.iterations, 0);
  }
  EXPECT_GT(interleaved, 50);  // the shuffled orders really interleave
}

TEST(ExactMvaKernel, OneStateLatticeAndZeroDemandsMatchReference) {
  util::Rng rng(7);
  for (std::size_t queueing = 1; queueing <= 4; ++queueing) {
    ClosedNetwork net = RandomKernelNetwork(&rng, queueing, 4, true);
    for (Chain& chain : net.chains) chain.population = 0;  // one state
    MvaWorkspace ws;
    ASSERT_TRUE(ExactMvaInPlace(net, &ws));
    ExpectBitIdentical(ws.solution, ReferenceExactMva(net), "one state");
    for (double x : ws.solution.throughput) EXPECT_EQ(x, 0.0);

    // A chain with no demand and no think time has zero throughput.
    for (Chain& chain : net.chains) chain.population = 3;
    std::fill(net.chains[0].demands.begin(), net.chains[0].demands.end(),
              0.0);
    net.chains[0].think_time = 0.0;
    ASSERT_TRUE(ExactMvaInPlace(net, &ws));
    ExpectBitIdentical(ws.solution, ReferenceExactMva(net), "zero demands");
    EXPECT_EQ(ws.solution.throughput[0], 0.0);
  }
}

// Property sweep: random small networks must satisfy the invariants.
class MvaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MvaPropertyTest, InvariantsOnRandomNetworks) {
  util::Rng rng(GetParam());
  ClosedNetwork net;
  const int num_centers = 1 + static_cast<int>(rng.NextBounded(4));
  const int num_chains = 1 + static_cast<int>(rng.NextBounded(4));
  for (int m = 0; m < num_centers; ++m) {
    net.AddCenter("c" + std::to_string(m), rng.NextDouble() < 0.3
                                               ? CenterKind::kDelay
                                               : CenterKind::kQueueing);
  }
  for (int k = 0; k < num_chains; ++k) {
    const std::size_t c = net.AddChain("k" + std::to_string(k),
                                       1 + static_cast<int>(rng.NextBounded(4)),
                                       rng.NextDouble() * 10);
    for (int m = 0; m < num_centers; ++m)
      net.chains[c].demands[m] = rng.NextDouble() * 5;
  }
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok) << res.error;
  const auto& s = res.solution;
  double total_customers = 0.0;
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    EXPECT_GE(s.throughput[k], 0.0);
    EXPECT_GE(s.response_time[k], 0.0);
    total_customers += s.throughput[k] * net.chains[k].think_time;
    // Residence at least the demand at every center.
    for (std::size_t m = 0; m < net.centers.size(); ++m)
      EXPECT_GE(s.residence[k][m], net.chains[k].demands[m] - 1e-12);
  }
  for (std::size_t m = 0; m < net.centers.size(); ++m) {
    total_customers += s.queue_length[m];
    if (net.centers[m].kind == CenterKind::kQueueing)
      EXPECT_LE(s.utilization[m], 1.0 + 1e-9);
  }
  double expected_population = 0.0;
  for (const Chain& chain : net.chains) expected_population += chain.population;
  EXPECT_NEAR(total_customers, expected_population, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, MvaPropertyTest,
                         ::testing::Range(1, 33));

TEST(Bounds, SingleChainValues) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("disk", CenterKind::kQueueing);
  const std::size_t dly = net.AddCenter("dly", CenterKind::kDelay);
  const std::size_t k = net.AddChain("jobs", 10, 5.0);
  net.chains[k].demands[cpu] = 2.0;
  net.chains[k].demands[disk] = 4.0;
  net.chains[k].demands[dly] = 3.0;
  const auto bounds = AsymptoticBounds(net);
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_DOUBLE_EQ(bounds[0].total_demand, 9.0);
  EXPECT_DOUBLE_EQ(bounds[0].bottleneck_demand, 4.0);  // delay center excluded
  EXPECT_DOUBLE_EQ(bounds[0].max_throughput, 0.25);    // saturated: 1/D_max
  EXPECT_DOUBLE_EQ(bounds[0].min_response, 10 * 4.0 - 5.0);
}

TEST(Bounds, LightLoadRegimeUsesPopulationBound) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t k = net.AddChain("jobs", 1, 95.0);
  net.chains[k].demands[cpu] = 5.0;
  const auto bounds = AsymptoticBounds(net);
  EXPECT_DOUBLE_EQ(bounds[0].max_throughput, 1.0 / 100.0);  // N/(D+Z)
  EXPECT_DOUBLE_EQ(bounds[0].min_response, 5.0);
}

TEST(Bounds, ExactMvaRespectsBoundsOnRandomNetworks) {
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    ClosedNetwork net;
    const int num_centers = 1 + static_cast<int>(rng.NextBounded(4));
    const int num_chains = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < num_centers; ++m) {
      net.AddCenter("c", rng.NextDouble() < 0.3 ? CenterKind::kDelay
                                                : CenterKind::kQueueing);
    }
    for (int k = 0; k < num_chains; ++k) {
      const std::size_t c =
          net.AddChain("k", 1 + static_cast<int>(rng.NextBounded(5)),
                       rng.NextDouble() * 20);
      for (int m = 0; m < num_centers; ++m)
        net.chains[c].demands[m] = rng.NextDouble() * 8;
    }
    const MvaResult res = ExactMva(net);
    ASSERT_TRUE(res.ok);
    const auto bounds = AsymptoticBounds(net);
    for (std::size_t k = 0; k < net.chains.size(); ++k) {
      EXPECT_LE(res.solution.throughput[k], bounds[k].max_throughput + 1e-9);
      EXPECT_GE(res.solution.response_time[k],
                bounds[k].total_demand - 1e-9);
    }
  }
}

TEST(Ethernet, DelayGrowsWithLoadAndStaysFiniteNearSaturation) {
  EthernetParams params;
  const double frame = 8000.0;  // 1000-byte message
  const double idle = EthernetMeanDelayMs(params, frame, 0.0);
  const double busy = EthernetMeanDelayMs(params, frame, 0.8);
  const double hot = EthernetMeanDelayMs(params, frame, 10.0);
  EXPECT_GT(idle, 0.0);
  EXPECT_GT(busy, idle);
  EXPECT_GT(hot, busy);
  EXPECT_LT(hot, 1000.0);  // clamped, not infinite
  // Transmission of 8000 bits at 10 Mb/s is 0.8 ms; idle delay is close.
  EXPECT_NEAR(idle, 0.8 + params.propagation_ms, 0.05);
}

}  // namespace
}  // namespace carat::qn
