// The testbed's determinism contract: for a fixed seed, a run's results are
// a pure function of its input. The event kernel orders every event by
// (time, origin site, origin sequence), so nothing about the host -- thread
// scheduling, other runs in the same process -- can move a bit.
//
// FingerprintAnchors pins the paper workloads under every backend, plus a
// distributed 4-node point at two communication delays, across builds.
// The *IsShardCountInvariant tests pin the 4-node workloads at shards 1, 2
// and 4: TestbedOptions::shards is accepted and ignored, so every value must
// reproduce the anchor the sharded kernel produced at each of them.
// ConcurrentSeedsMatchSerialRuns runs independent testbeds on pool threads
// at once; it carries the `tsan` label, so ThreadSanitizer checks that
// concurrent runs share no mutable state:
//   ctest --test-dir build-tsan -L tsan

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "carat/testbed.h"
#include "cc/cc.h"
#include "exec/thread_pool.h"
#include "workload/spec.h"

namespace carat {
namespace {

TestbedResult RunWith(const model::ModelInput& input, std::uint64_t seed = 3) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.warmup_ms = 10'000;
  opts.measure_ms = 100'000;
  return RunTestbed(input, opts);
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

// mb8 on 4 nodes with communication delay `alpha_ms`: every message hop
// crosses a site boundary and pays alpha.
model::ModelInput FourNodeMb8(double alpha_ms) {
  workload::WorkloadSpec wl = workload::MakeMB8(8, 4);
  wl.comm_delay_ms = alpha_ms;
  return wl.ToModelInput();
}

TEST(TestbedDeterminism, FingerprintAnchors) {
  // Every bit of each run's TestbedResult, pinned across builds: a change
  // that moves one event (an ordering key, a random draw, a message delay)
  // changes the hash. Captured before the kernel lost its sharded path; the
  // serial kernel must reproduce them exactly.
  struct PaperConfig {
    const char* name;
    workload::WorkloadSpec spec;
  };
  const PaperConfig configs[] = {{"lb8", workload::MakeLB8(8)},
                                 {"mb4", workload::MakeMB4(8)},
                                 {"mb8", workload::MakeMB8(8)},
                                 {"ub6", workload::MakeUB6(6)}};
  const std::uint64_t kPaperAnchors[4][4] = {
      // 2pl, nowait, waitdie, queue
      {0x0fe165f8fe02a594ull, 0xf5ebb183a4f89ed1ull, 0xa53a65a6f2e50c6cull,
       0xbe8e490cd69dbaaaull},  // lb8
      {0xbd395d09c38071e3ull, 0x8c727936a6a76281ull, 0xb0986bf7c927c6ceull,
       0xa5a8fcc43605455bull},  // mb4
      {0x7bcecca493d462cdull, 0x1366ba6ad56c0e14ull, 0x7524b83ea05619dfull,
       0xcee112f3bc6204b7ull},  // mb8
      {0xbbedf65cbdc8498bull, 0xe9d66c6cf5467270ull, 0x074ac646caabeab2ull,
       0x590dd52297f46a66ull},  // ub6
  };
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    for (std::size_t b = 0; b < cc::kAllBackends.size(); ++b) {
      workload::WorkloadSpec spec = configs[i].spec;
      spec.cc_backend = cc::kAllBackends[b];
      const TestbedResult r = RunWith(spec.ToModelInput());
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_TRUE(r.database_consistent);
      EXPECT_EQ(Fnv1a64(TestbedResultFingerprint(r)), kPaperAnchors[i][b])
          << configs[i].name << " / " << cc::Name(cc::kAllBackends[b])
          << ": 0x" << std::hex << Fnv1a64(TestbedResultFingerprint(r));
    }
  }

  const struct {
    double alpha_ms;
    std::uint64_t anchor;
  } kFourNode[] = {{5.0, 0x7715ce743410b073ull},
                   {50.0, 0x480300395b2e5181ull}};
  for (const auto& point : kFourNode) {
    const TestbedResult r = RunWith(FourNodeMb8(point.alpha_ms));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.database_consistent);
    EXPECT_EQ(Fnv1a64(TestbedResultFingerprint(r)), point.anchor)
        << "mb8 4 nodes alpha=" << point.alpha_ms << ": 0x" << std::hex
        << Fnv1a64(TestbedResultFingerprint(r));
  }
}

// Runs `input` at shards 1, 2 and 4; each must be consistent and hash to
// `anchor`.
void ExpectShardCountInvariant(const model::ModelInput& input,
                               std::uint64_t anchor) {
  for (const int shards : {1, 2, 4}) {
    TestbedOptions opts;
    opts.seed = 3;
    opts.warmup_ms = 10'000;
    opts.measure_ms = 100'000;
    opts.shards = shards;
    const TestbedResult r = RunTestbed(input, opts);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.database_consistent);
    EXPECT_EQ(Fnv1a64(TestbedResultFingerprint(r)), anchor)
        << "shards=" << shards << ": 0x" << std::hex
        << Fnv1a64(TestbedResultFingerprint(r));
  }
}

TEST(TestbedDeterminism, Lb8IsShardCountInvariant) {
  // Local-only: no cross-site messages.
  ExpectShardCountInvariant(workload::MakeLB8(8, 4).ToModelInput(),
                            0x1b88a161ebdc6688ull);
}

TEST(TestbedDeterminism, Mb4IsShardCountInvariant) {
  auto wl = workload::MakeMB4(8, 4);
  wl.comm_delay_ms = 5.0;
  ExpectShardCountInvariant(wl.ToModelInput(), 0x2de82b6f2ab17f55ull);
}

TEST(TestbedDeterminism, Mb8IsShardCountInvariant) {
  ExpectShardCountInvariant(FourNodeMb8(5.0), 0x7715ce743410b073ull);
}

TEST(TestbedDeterminism, Ub6IsShardCountInvariant) {
  auto wl = workload::MakeUB6(6, 4);
  wl.comm_delay_ms = 5.0;
  ExpectShardCountInvariant(wl.ToModelInput(), 0x6774f7b73b4ebeafull);
}

TEST(TestbedDeterminism, ConcurrentSeedsMatchSerialRuns) {
  // Replication parallelism: independent runs on pool threads at once must
  // each reproduce their serial run. Any state shared between testbeds (a
  // static in the kernel, say) would show up here as a fingerprint mismatch
  // or, under TSan, as a race.
  const model::ModelInput input = FourNodeMb8(5.0);
  constexpr std::size_t kSeeds = 8;
  std::vector<std::string> serial(kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    const TestbedResult r = RunWith(input, /*seed=*/10 + i);
    ASSERT_TRUE(r.ok) << r.error;
    serial[i] = TestbedResultFingerprint(r);
  }

  exec::ThreadPool pool(4);
  std::vector<std::string> concurrent(kSeeds);
  exec::ParallelFor(&pool, 0, kSeeds, [&](std::size_t i) {
    concurrent[i] = TestbedResultFingerprint(RunWith(input, /*seed=*/10 + i));
  });
  for (std::size_t i = 0; i < kSeeds; ++i) {
    EXPECT_EQ(concurrent[i], serial[i]) << "seed " << 10 + i;
  }
}

TEST(TestbedDeterminism, DifferentSeedsStillDiffer) {
  // Guards against a fingerprint that ignores the interesting fields.
  auto wl = workload::MakeMB4(8, 4);
  wl.comm_delay_ms = 5.0;
  const auto input = wl.ToModelInput();
  const TestbedResult a = RunWith(input, /*seed=*/3);
  const TestbedResult b = RunWith(input, /*seed=*/4);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_NE(TestbedResultFingerprint(a), TestbedResultFingerprint(b));
}

}  // namespace
}  // namespace carat
