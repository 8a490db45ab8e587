#include "qn/mva_batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "qn/mva.h"
#include "qn/network.h"

namespace carat::qn {
namespace {

// Bitwise equality (not EXPECT_DOUBLE_EQ): the batch contract is that lane w
// reproduces the scalar solve of lane w's network bit for bit.
bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void ExpectBitIdentical(const Solution& batch, const Solution& scalar,
                        std::size_t lane) {
  ASSERT_EQ(batch.throughput.size(), scalar.throughput.size());
  for (std::size_t k = 0; k < scalar.throughput.size(); ++k) {
    EXPECT_TRUE(SameBits(batch.throughput[k], scalar.throughput[k]))
        << "lane " << lane << " throughput[" << k << "]: "
        << batch.throughput[k] << " vs " << scalar.throughput[k];
    EXPECT_TRUE(SameBits(batch.response_time[k], scalar.response_time[k]))
        << "lane " << lane << " response_time[" << k << "]";
    for (std::size_t m = 0; m < scalar.residence[k].size(); ++m) {
      EXPECT_TRUE(SameBits(batch.residence[k][m], scalar.residence[k][m]))
          << "lane " << lane << " residence[" << k << "][" << m << "]";
    }
  }
  for (std::size_t m = 0; m < scalar.queue_length.size(); ++m) {
    EXPECT_TRUE(SameBits(batch.queue_length[m], scalar.queue_length[m]))
        << "lane " << lane << " queue_length[" << m << "]";
    EXPECT_TRUE(SameBits(batch.utilization[m], scalar.utilization[m]))
        << "lane " << lane << " utilization[" << m << "]";
  }
}

// A CARAT-site-like shape: three queueing centers, two delay centers, three
// chains. `variant` skews demands, think times and populations per lane the
// way a sweep does.
ClosedNetwork MakeNet(std::size_t variant, int base_pop) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t d1 = net.AddCenter("disk1", CenterKind::kQueueing);
  const std::size_t d2 = net.AddCenter("disk2", CenterKind::kQueueing);
  const std::size_t lan = net.AddCenter("lan", CenterKind::kDelay);
  const std::size_t term = net.AddCenter("terminals", CenterKind::kDelay);
  const double s = 1.0 + 0.03 * static_cast<double>(variant);
  const std::size_t a =
      net.AddChain("read", base_pop + static_cast<int>(variant % 3),
                   /*think_time=*/1000.0 * s);
  const std::size_t b = net.AddChain("write", base_pop, 500.0);
  const std::size_t c = net.AddChain("commit", base_pop / 2, 250.0 / s);
  net.chains[a].demands[cpu] = 5.1 * s;
  net.chains[a].demands[d1] = 24.0;
  net.chains[a].demands[lan] = 4.3;
  net.chains[b].demands[cpu] = 7.7;
  net.chains[b].demands[d2] = 30.0 * s;
  net.chains[b].demands[term] = 2.0;
  net.chains[c].demands[cpu] = 1.9 / s;
  net.chains[c].demands[d1] = 12.0;
  net.chains[c].demands[d2] = 6.5 * s;
  return net;
}

std::vector<const ClosedNetwork*> Pointers(
    const std::vector<ClosedNetwork>& nets) {
  std::vector<const ClosedNetwork*> ptrs;
  for (const ClosedNetwork& net : nets) ptrs.push_back(&net);
  return ptrs;
}

TEST(SchweitzerMvaBatch, BitIdenticalToScalarAcrossLaneWidths) {
  for (std::size_t lanes : {1u, 2u, 4u, 5u, 8u}) {
    std::vector<ClosedNetwork> nets;
    for (std::size_t w = 0; w < lanes; ++w) nets.push_back(MakeNet(w, 16));
    const auto ptrs = Pointers(nets);

    BatchMvaWorkspace bw;
    std::string err;
    ASSERT_TRUE(SchweitzerMvaBatchInPlace(ptrs.data(), lanes, &bw,
                                          /*tolerance=*/1e-9,
                                          /*max_iterations=*/10000,
                                          /*warm_start=*/false, &err))
        << err;

    for (std::size_t w = 0; w < lanes; ++w) {
      MvaWorkspace sw;
      ASSERT_TRUE(SchweitzerMvaInPlace(nets[w], &sw));
      EXPECT_EQ(bw.iterations[w], sw.iterations) << "lane " << w;
      ExpectBitIdentical(bw.solutions[w], sw.solution, w);
    }
  }
}

TEST(SchweitzerMvaBatch, LanesRetireAtDifferentIterationCounts) {
  // Wildly different populations converge at different speeds; retired lanes
  // must hold their converged state bit-exactly while others keep going.
  constexpr std::size_t kLanes = 4;
  std::vector<ClosedNetwork> nets;
  nets.push_back(MakeNet(0, 2));
  nets.push_back(MakeNet(1, 16));
  nets.push_back(MakeNet(2, 64));
  nets.push_back(MakeNet(3, 256));
  const auto ptrs = Pointers(nets);

  BatchMvaWorkspace bw;
  ASSERT_TRUE(SchweitzerMvaBatchInPlace(ptrs.data(), kLanes, &bw));

  std::vector<int> iters;
  for (std::size_t w = 0; w < kLanes; ++w) {
    MvaWorkspace sw;
    ASSERT_TRUE(SchweitzerMvaInPlace(nets[w], &sw));
    EXPECT_EQ(bw.iterations[w], sw.iterations) << "lane " << w;
    ExpectBitIdentical(bw.solutions[w], sw.solution, w);
    iters.push_back(bw.iterations[w]);
  }
  // The premise of the test: at least two lanes genuinely converged at
  // different iteration counts.
  EXPECT_NE(iters.front(), iters.back());
}

TEST(SchweitzerMvaBatch, EmptyChainLaneMatchesScalar) {
  std::vector<ClosedNetwork> nets;
  for (std::size_t w = 0; w < 3; ++w) nets.push_back(MakeNet(w, 12));
  nets[1].chains[2].population = 0;  // pop-0 chain in the middle lane
  const auto ptrs = Pointers(nets);

  BatchMvaWorkspace bw;
  ASSERT_TRUE(SchweitzerMvaBatchInPlace(ptrs.data(), nets.size(), &bw));
  for (std::size_t w = 0; w < nets.size(); ++w) {
    MvaWorkspace sw;
    ASSERT_TRUE(SchweitzerMvaInPlace(nets[w], &sw));
    ExpectBitIdentical(bw.solutions[w], sw.solution, w);
  }
  EXPECT_TRUE(SameBits(bw.solutions[1].throughput[2], 0.0));
}

TEST(SchweitzerMvaBatch, WarmStartResumesPerLane) {
  constexpr std::size_t kLanes = 4;
  std::vector<ClosedNetwork> nets;
  for (std::size_t w = 0; w < kLanes; ++w) nets.push_back(MakeNet(w, 24));
  auto ptrs = Pointers(nets);

  BatchMvaWorkspace bw;
  ASSERT_TRUE(SchweitzerMvaBatchInPlace(ptrs.data(), kLanes, &bw));

  // Scalar twins retain their own qkm the same way.
  std::vector<MvaWorkspace> sws(kLanes);
  for (std::size_t w = 0; w < kLanes; ++w) {
    ASSERT_TRUE(SchweitzerMvaInPlace(nets[w], &sws[w]));
  }

  // Nudge every lane's parameters, invalidate lane 2 (as the serving layer
  // does when a lane has no warm seed), and re-solve warm.
  for (std::size_t w = 0; w < kLanes; ++w) {
    nets[w].chains[0].demands[0] *= 1.05;
    nets[w].chains[1].think_time *= 0.9;
  }
  bw.InvalidateWarm(2);
  ASSERT_TRUE(SchweitzerMvaBatchInPlace(ptrs.data(), kLanes, &bw,
                                        /*tolerance=*/1e-9,
                                        /*max_iterations=*/10000,
                                        /*warm_start=*/true));

  for (std::size_t w = 0; w < kLanes; ++w) {
    if (w == 2) sws[w].qkm.clear();  // scalar equivalent of InvalidateWarm
    ASSERT_TRUE(SchweitzerMvaInPlace(nets[w], &sws[w], 1e-9, 10000,
                                     /*warm_start=*/true));
    EXPECT_EQ(bw.iterations[w], sws[w].iterations) << "lane " << w;
    ExpectBitIdentical(bw.solutions[w], sws[w].solution, w);
  }
}

TEST(SchweitzerMvaBatch, RejectsMixedShapes) {
  std::vector<ClosedNetwork> nets;
  nets.push_back(MakeNet(0, 8));
  nets.push_back(MakeNet(1, 8));
  nets[1].AddCenter("extra", CenterKind::kQueueing);
  for (auto& chain : nets[1].chains) chain.demands.resize(6, 0.0);
  const auto ptrs = Pointers(nets);

  BatchMvaWorkspace bw;
  std::string err;
  EXPECT_FALSE(SchweitzerMvaBatchInPlace(ptrs.data(), 2, &bw, 1e-9, 10000,
                                         false, &err));
  EXPECT_NE(err.find("shape"), std::string::npos) << err;

  // Same center/chain counts but a different center *kind* is also a
  // different shape.
  std::vector<ClosedNetwork> kinds;
  kinds.push_back(MakeNet(0, 8));
  kinds.push_back(MakeNet(1, 8));
  kinds[1].centers[3].kind = CenterKind::kQueueing;
  const auto kptrs = Pointers(kinds);
  EXPECT_FALSE(SchweitzerMvaBatchInPlace(kptrs.data(), 2, &bw, 1e-9, 10000,
                                         false, &err));
}

TEST(ExactMvaBatch, BitIdenticalToScalarWithSharedLattice) {
  // Same populations (shared lattice), different demands/think per lane:
  // exact lanes run the scalar kernel per lane, iteration count 0.
  std::vector<ClosedNetwork> nets;
  for (std::size_t w = 0; w < 4; ++w) nets.push_back(MakeNet(3 * w, 4));
  for (auto& net : nets) {
    net.chains[0].population = 4;  // undo the variant pop skew
  }
  const auto ptrs = Pointers(nets);

  BatchMvaWorkspace bw;
  std::string err;
  ASSERT_TRUE(SolveMvaBatchInPlace(ptrs.data(), nets.size(), &bw,
                                   /*exact_state_limit=*/1u << 20,
                                   /*warm_start=*/false, &err))
      << err;
  for (std::size_t w = 0; w < nets.size(); ++w) {
    MvaWorkspace sw;
    ASSERT_TRUE(ExactMvaInPlace(nets[w], &sw));
    EXPECT_EQ(bw.iterations[w], 0);
    ExpectBitIdentical(bw.solutions[w], sw.solution, w);
  }
}

TEST(SolveMvaBatch, InactiveLanesKeepTheirLastSolution) {
  // Lanes 0/2 exact, lanes 1/3 Schweitzer: the per-lane path. Lanes whose
  // activity flag is 0 are skipped, so their solutions and retained queue
  // lengths stay those of the last solve they took part in.
  std::vector<ClosedNetwork> nets;
  nets.push_back(MakeNet(0, 2));
  nets.push_back(MakeNet(1, 64));
  nets.push_back(MakeNet(2, 3));
  nets.push_back(MakeNet(3, 64));
  const auto ptrs = Pointers(nets);
  constexpr std::size_t kLimit = 1000;

  BatchMvaWorkspace bw;
  ASSERT_TRUE(SolveMvaBatchInPlace(ptrs.data(), nets.size(), &bw, kLimit,
                                   /*warm_start=*/true));
  const std::vector<Solution> first = bw.solutions;
  const std::vector<double> frozen_qkm = bw.scalar_ws[1].qkm;

  for (auto& net : nets) {
    for (auto& chain : net.chains) chain.demands[0] *= 1.5;
  }
  const unsigned char active[] = {1, 0, 0, 1};
  ASSERT_TRUE(SolveMvaBatchInPlace(ptrs.data(), nets.size(), &bw, kLimit,
                                   /*warm_start=*/true, nullptr, active));
  MvaWorkspace sw;
  ASSERT_TRUE(SolveMvaInPlace(nets[0], &sw, kLimit));
  ExpectBitIdentical(bw.solutions[0], sw.solution, 0);  // re-solved
  ExpectBitIdentical(bw.solutions[1], first[1], 1);     // skipped
  ExpectBitIdentical(bw.solutions[2], first[2], 2);     // skipped
  EXPECT_EQ(bw.scalar_ws[1].qkm, frozen_qkm);
}

TEST(SolveMvaBatch, AllSchweitzerTakesLockstepPathBitIdentical) {
  std::vector<ClosedNetwork> nets;
  for (std::size_t w = 0; w < 6; ++w) nets.push_back(MakeNet(w, 16));
  const auto ptrs = Pointers(nets);

  // exact_state_limit=1 forces every lane onto the Schweitzer path, same as
  // the scalar dispatch rule would.
  BatchMvaWorkspace bw;
  ASSERT_TRUE(SolveMvaBatchInPlace(ptrs.data(), nets.size(), &bw,
                                   /*exact_state_limit=*/1));
  for (std::size_t w = 0; w < nets.size(); ++w) {
    MvaWorkspace sw;
    ASSERT_TRUE(SolveMvaInPlace(nets[w], &sw, /*exact_state_limit=*/1));
    EXPECT_EQ(bw.iterations[w], sw.iterations);
    ExpectBitIdentical(bw.solutions[w], sw.solution, w);
  }
}

TEST(SolveMvaBatch, AllExactSharedLatticeBitIdentical) {
  std::vector<ClosedNetwork> nets;
  for (std::size_t w = 0; w < 4; ++w) nets.push_back(MakeNet(3 * w, 4));
  for (auto& net : nets) net.chains[0].population = 4;
  const auto ptrs = Pointers(nets);

  BatchMvaWorkspace bw;
  ASSERT_TRUE(SolveMvaBatchInPlace(ptrs.data(), nets.size(), &bw));
  for (std::size_t w = 0; w < nets.size(); ++w) {
    MvaWorkspace sw;
    ASSERT_TRUE(SolveMvaInPlace(nets[w], &sw));
    ExpectBitIdentical(bw.solutions[w], sw.solution, w);
  }
}

TEST(SolveMvaBatch, MixedDispatchFallsBackBitIdentical) {
  // Lane 0/2 exact (tiny pops), lane 1/3 Schweitzer (pops past the limit):
  // the batch must apply the scalar per-network dispatch rule to each lane.
  std::vector<ClosedNetwork> nets;
  nets.push_back(MakeNet(0, 2));
  nets.push_back(MakeNet(1, 64));
  nets.push_back(MakeNet(2, 3));
  nets.push_back(MakeNet(3, 64));
  const auto ptrs = Pointers(nets);
  constexpr std::size_t kLimit = 1000;  // (2..4)^3-ish lattices fit, 64^3 not

  BatchMvaWorkspace bw;
  ASSERT_TRUE(SolveMvaBatchInPlace(ptrs.data(), nets.size(), &bw, kLimit));
  for (std::size_t w = 0; w < nets.size(); ++w) {
    MvaWorkspace sw;
    ASSERT_TRUE(SolveMvaInPlace(nets[w], &sw, kLimit));
    EXPECT_EQ(bw.iterations[w], sw.iterations);
    ExpectBitIdentical(bw.solutions[w], sw.solution, w);
  }
}

TEST(SolveMvaBatch, ExactLanesWithDifferentLatticesFallBackBitIdentical) {
  std::vector<ClosedNetwork> nets;
  nets.push_back(MakeNet(0, 2));
  nets.push_back(MakeNet(0, 4));  // different pops: no shared lattice
  const auto ptrs = Pointers(nets);

  BatchMvaWorkspace bw;
  ASSERT_TRUE(SolveMvaBatchInPlace(ptrs.data(), 2, &bw));
  for (std::size_t w = 0; w < 2; ++w) {
    MvaWorkspace sw;
    ASSERT_TRUE(SolveMvaInPlace(nets[w], &sw));
    ExpectBitIdentical(bw.solutions[w], sw.solution, w);
  }
}

TEST(MvaBatch, CompiledLaneWidthIsReported) {
  const std::size_t lanes = MvaCompiledSimdDoubleLanes();
  EXPECT_GE(lanes, 1u);
  EXPECT_LE(lanes, kMvaBatchLaneWidth);
}

}  // namespace
}  // namespace carat::qn
