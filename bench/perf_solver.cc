// perf_solver - establishes the repo's solver perf trajectory. Times
//
//   1. an end-to-end what-if model sweep (4 paper workloads x 8 MPL points,
//      each point solved at 8 user think times) run serially vs. on the
//      exec::ThreadPool, asserting the parallel run is numerically identical
//      to the serial one. Serial and parallel passes are interleaved after
//      an untimed warm-up, and the gate reads the median of the per-repeat
//      ratios, and
//   2. the exact / Schweitzer MVA hot path with a reused MvaWorkspace,
//      counting heap allocations per call via a global operator-new hook
//      (must be zero once the workspace is warm), including the exact
//      kernel on the model's two site shapes (6 chains; CPU + DISK, and
//      CPU + DISK + LOG, ahead of the four delay centers), and
//   3. the lockstep SoA batch Schweitzer kernel against the scalar kernel on
//      the same scenarios: 8 lanes of a representative site network with
//      per-lane demand skews, measured as interleaved medians to shrug off
//      shared-host noise. The batch must be bit-identical per lane AND at
//      least 2x the scalar solve rate — this gate is armed on every host
//      (single-core included: the win is SIMD lanes, not threads).
//
// Results land in BENCH_solver.json (cwd) so successive PRs can track the
// numbers. Usage: perf_solver [--jobs N] [--out FILE]
//
// Note: the thread-sweep speedup is bounded by the host's core count; its
// gate (>= 1.5x) arms only when the host has >= 4 hardware threads. The
// batch-vs-scalar gate is thread-independent and always armed.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "exec/thread_pool.h"
#include "model/solver.h"
#include "qn/mva.h"
#include "qn/mva_batch.h"
#include "workload/spec.h"

// ---- Global allocation counter ---------------------------------------------
// Counts every operator-new in the process; the MVA micro-benchmark reads
// the delta around the solve calls.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct SweepCase {
  const char* workload;
  carat::workload::WorkloadSpec (*make)(int);
  int n;
};

// 8 MPL points x 4 paper workloads, solved with the analytical model only
// (the testbed runs are benchmarked by perf_testbed).
std::vector<SweepCase> MakeSweepCases() {
  using carat::workload::WorkloadSpec;
  struct Factory {
    const char* name;
    WorkloadSpec (*make)(int);
  };
  const Factory factories[] = {
      {"lb8", [](int n) { return carat::workload::MakeLB8(n); }},
      {"mb4", [](int n) { return carat::workload::MakeMB4(n); }},
      {"mb8", [](int n) { return carat::workload::MakeMB8(n); }},
      {"ub6", [](int n) { return carat::workload::MakeUB6(n); }},
  };
  const int sizes[] = {4, 6, 8, 10, 12, 14, 16, 20};
  std::vector<SweepCase> cases;
  for (const Factory& f : factories)
    for (int n : sizes) cases.push_back({f.name, f.make, n});
  return cases;
}

// User think times (R_UT, ms) each sweep point is solved at, so a point is
// 8 cold solves (~1-40 ms): one solve (~0.1-5 ms) was too little work for
// thread scaling to show above pool overhead and host noise.
constexpr double kThinkTimesMs[] = {0, 250, 500, 1000, 2000, 4000, 8000, 16000};
constexpr std::size_t kThinkTimes = std::size(kThinkTimesMs);

// Solves every case at every think time, fanning points out over `pool`
// (null: serial). The per-site MVA parallelism inside Solve() stays off so
// the measurement isolates sweep-level parallelism.
std::vector<double> SolveAll(const std::vector<SweepCase>& cases,
                             carat::exec::ThreadPool* pool, double* elapsed_ms) {
  std::vector<double> xput(cases.size() * kThinkTimes, 0.0);
  const Clock::time_point start = Clock::now();
  carat::exec::ParallelFor(pool, 0, cases.size(), [&](std::size_t i) {
    carat::workload::WorkloadSpec spec = cases[i].make(cases[i].n);
    for (std::size_t t = 0; t < kThinkTimes; ++t) {
      spec.think_time_ms = kThinkTimesMs[t];
      const carat::model::ModelSolution sol =
          carat::model::CaratModel(spec.ToModelInput()).Solve();
      xput[i * kThinkTimes + t] = sol.ok ? sol.TotalTxnPerSec() : -1.0;
    }
  });
  *elapsed_ms = ElapsedMs(start);
  return xput;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Representative site network: CPU + 2 disks (queueing), 4 delay centers,
// 4 chains.
carat::qn::ClosedNetwork MakeSiteNetwork(int population) {
  using namespace carat::qn;
  ClosedNetwork net;
  net.AddCenter("CPU", CenterKind::kQueueing);
  net.AddCenter("DISK", CenterKind::kQueueing);
  net.AddCenter("LOG", CenterKind::kQueueing);
  net.AddCenter("LW", CenterKind::kDelay);
  net.AddCenter("RW", CenterKind::kDelay);
  net.AddCenter("CW", CenterKind::kDelay);
  net.AddCenter("UT", CenterKind::kDelay);
  const double base[4][7] = {
      {1.4, 11.0, 2.2, 3.0, 0.0, 0.0, 1.0},
      {2.8, 14.0, 4.4, 6.0, 12.0, 21.0, 2.0},
      {0.9, 7.0, 1.1, 2.0, 0.0, 0.0, 1.5},
      {1.7, 9.0, 3.3, 4.0, 8.0, 17.0, 2.5},
  };
  for (int k = 0; k < 4; ++k) {
    const std::size_t c = net.AddChain("chain" + std::to_string(k),
                                       population, /*think_time=*/1000.0);
    for (int m = 0; m < 7; ++m) net.chains[c].demands[m] = base[k][m];
  }
  return net;
}

// The model's site network shape (BuildSiteNetworks): 2 or 3 queueing
// centers (CPU, DISK, optional LOG) first, then the LW/RW/CW/UT delay
// centers, one chain per transaction type. Populations 3/3/2/2/1/1 give a
// 576-state lattice.
carat::qn::ClosedNetwork MakeModelSiteNetwork(bool log_disk) {
  using namespace carat::qn;
  ClosedNetwork net;
  net.AddCenter("CPU", CenterKind::kQueueing);
  net.AddCenter("DISK", CenterKind::kQueueing);
  if (log_disk) net.AddCenter("LOG", CenterKind::kQueueing);
  for (const char* name : {"LW", "RW", "CW", "UT"})
    net.AddCenter(name, CenterKind::kDelay);
  const int populations[6] = {3, 3, 2, 2, 1, 1};
  for (int k = 0; k < 6; ++k) {
    const std::size_t c = net.AddChain("chain" + std::to_string(k),
                                       populations[k], /*think_time=*/500.0);
    std::vector<double>& d = net.chains[c].demands;
    d[0] = 1.0 + 0.4 * k;   // CPU
    d[1] = 8.0 + 1.5 * k;   // DISK
    if (log_disk) d[2] = 2.0 + 0.3 * k;
    const std::size_t lw = log_disk ? 3 : 2;
    d[lw] = 3.0 + k;          // LW
    d[lw + 1] = k % 2 == 1 ? 12.0 : 0.0;  // RW (remote types only)
    d[lw + 2] = k % 2 == 1 ? 20.0 : 0.0;  // CW
    d[lw + 3] = 1.5;          // UT
  }
  return net;
}

struct MvaBench {
  double solves_per_s = 0.0;
  std::uint64_t allocs_per_call = 0;
};

// ---- Lockstep batch vs scalar Schweitzer. ----------------------------------

struct BatchBench {
  double scalar_solves_per_s = 0.0;
  double batch_solves_per_s = 0.0;
  double speedup = 0.0;
  bool bit_identical = false;
  std::uint64_t batch_allocs_per_call = 0;
};

bool SameSolutionBits(const carat::qn::Solution& a,
                      const carat::qn::Solution& b) {
  auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  if (!(same(a.throughput, b.throughput) &&
        same(a.response_time, b.response_time) &&
        same(a.queue_length, b.queue_length) &&
        same(a.utilization, b.utilization))) {
    return false;
  }
  if (a.residence.size() != b.residence.size()) return false;
  for (std::size_t k = 0; k < a.residence.size(); ++k) {
    if (!same(a.residence[k], b.residence[k])) return false;
  }
  return true;
}

// W lanes of the representative site network with per-lane demand skews
// (the serving layer's sweep pattern: same shape, different parameters).
// Cold Schweitzer solves on both paths; interleaved reps with a median pick
// so a noisy neighbor on a shared host cannot flip the comparison.
BatchBench BenchBatchSchweitzer() {
  using namespace carat::qn;
  constexpr std::size_t kLanes = kMvaBatchLaneWidth;
  std::vector<ClosedNetwork> nets;
  std::vector<const ClosedNetwork*> ptrs;
  for (std::size_t w = 0; w < kLanes; ++w) {
    nets.push_back(MakeSiteNetwork(/*population=*/64));
    for (Chain& chain : nets.back().chains) {
      for (double& d : chain.demands) d *= 1.0 + 0.03 * w;
    }
  }
  for (const ClosedNetwork& net : nets) ptrs.push_back(&net);

  std::vector<MvaWorkspace> scalar_ws(kLanes);
  BatchMvaWorkspace batch_ws;

  const auto scalar_pass = [&] {
    for (std::size_t w = 0; w < kLanes; ++w) {
      SchweitzerMvaInPlace(nets[w], &scalar_ws[w], /*tolerance=*/1e-9,
                           /*max_iterations=*/10000, /*warm_start=*/false);
    }
  };
  const auto batch_pass = [&] {
    SchweitzerMvaBatchInPlace(ptrs.data(), kLanes, &batch_ws,
                              /*tolerance=*/1e-9, /*max_iterations=*/10000,
                              /*warm_start=*/false);
  };

  BatchBench out;
  // Warm the workspaces, then verify per-lane bit-identity (all Solution
  // fields and iteration counts) before timing anything.
  scalar_pass();
  batch_pass();
  out.bit_identical = true;
  for (std::size_t w = 0; w < kLanes; ++w) {
    out.bit_identical =
        out.bit_identical &&
        SameSolutionBits(scalar_ws[w].solution, batch_ws.solutions[w]) &&
        scalar_ws[w].iterations == batch_ws.iterations[w];
  }

  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  batch_pass();
  out.batch_allocs_per_call =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;

  constexpr int kReps = 9;
  constexpr int kCallsPerRep = 300;
  std::vector<double> scalar_rates, batch_rates, ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kCallsPerRep; ++i) scalar_pass();
    const double scalar_ms = ElapsedMs(start);
    start = Clock::now();
    for (int i = 0; i < kCallsPerRep; ++i) batch_pass();
    const double batch_ms = ElapsedMs(start);
    const double solves = static_cast<double>(kCallsPerRep) * kLanes;
    scalar_rates.push_back(scalar_ms > 0.0 ? solves / scalar_ms * 1000.0
                                           : 0.0);
    batch_rates.push_back(batch_ms > 0.0 ? solves / batch_ms * 1000.0 : 0.0);
    ratios.push_back(scalar_ms > 0.0 && batch_ms > 0.0
                         ? scalar_ms / batch_ms
                         : 0.0);
  }
  out.scalar_solves_per_s = Median(scalar_rates);
  out.batch_solves_per_s = Median(batch_rates);
  out.speedup = Median(ratios);
  return out;
}

template <typename Solve>
MvaBench BenchMva(const Solve& solve, int iterations) {
  MvaBench out;
  // Warm up the workspace, then count allocations over the timed calls.
  solve();
  solve();
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < iterations; ++i) solve();
  const double ms = ElapsedMs(start);
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  out.solves_per_s = ms > 0.0 ? iterations / ms * 1000.0 : 0.0;
  out.allocs_per_call = allocs / iterations;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 8;
  std::string out_path = "BENCH_solver.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
      if (jobs <= 1) {
        std::fprintf(stderr, "--jobs must be >= 2\n");
        return 2;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: perf_solver [--jobs N] [--out FILE]\n");
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && static_cast<unsigned>(jobs) > hw) {
    std::fprintf(stderr,
                 "warning: --jobs %d exceeds the %u hardware threads on this "
                 "host; expect oversubscription, not speedup\n",
                 jobs, hw);
  }
  const std::vector<SweepCase> cases = MakeSweepCases();

  // ---- End-to-end sweep, serial vs. parallel. ------------------------------
  constexpr int kSweepReps = 7;
  constexpr double kWarmupMs = 2000.0;
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  std::vector<double> serial_runs_ms, parallel_runs_ms, sweep_ratios;
  bool identical = true;
  {
    carat::exec::ThreadPool pool(static_cast<std::size_t>(jobs));
    double ms = 0.0;
    // Untimed warm-up; the serial result is the reference. The parallel
    // warm-up keeps every worker busy for kWarmupMs: on a 4-vCPU VM the
    // guest ran all four workers of a burst that follows an idle spell on
    // one CPU for its first ~1.2 s, which reads as no scaling at all.
    const std::vector<double> reference = SolveAll(cases, nullptr, &ms);
    for (const Clock::time_point warm = Clock::now();
         ElapsedMs(warm) < kWarmupMs;) {
      identical = same_bits(SolveAll(cases, &pool, &ms), reference) &&
                  identical;
    }
    for (int rep = 0; rep < kSweepReps; ++rep) {
      double serial_ms = 0.0, parallel_ms = 0.0;
      identical = same_bits(SolveAll(cases, nullptr, &serial_ms), reference) &&
                  identical;
      identical = same_bits(SolveAll(cases, &pool, &parallel_ms), reference) &&
                  identical;
      serial_runs_ms.push_back(serial_ms);
      parallel_runs_ms.push_back(parallel_ms);
      sweep_ratios.push_back(parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
    }
  }
  const double serial_ms = Median(serial_runs_ms);
  const double parallel_ms = Median(parallel_runs_ms);
  const double speedup = Median(sweep_ratios);
  // The thread-sweep gate arms only with real parallel headroom (the same
  // policy as perf_testbed): on a 1-2 core host the sweep still runs, and
  // identical_output is still enforced, but the speedup is informational.
  const bool sweep_gate_armed = hw >= 4;

  // ---- MVA hot path with a reused workspace. -------------------------------
  const carat::qn::ClosedNetwork exact_net = MakeSiteNetwork(/*population=*/4);
  const carat::qn::ClosedNetwork approx_net =
      MakeSiteNetwork(/*population=*/64);
  carat::qn::MvaWorkspace exact_ws, approx_ws;
  const MvaBench exact = BenchMva(
      [&] {
        carat::qn::ExactMvaInPlace(exact_net, &exact_ws);
      },
      2000);
  const carat::qn::ClosedNetwork site2_net = MakeModelSiteNetwork(false);
  const carat::qn::ClosedNetwork site3_net = MakeModelSiteNetwork(true);
  carat::qn::MvaWorkspace site2_ws, site3_ws;
  const MvaBench exact_site2 = BenchMva(
      [&] { carat::qn::ExactMvaInPlace(site2_net, &site2_ws); }, 2000);
  const MvaBench exact_site3 = BenchMva(
      [&] { carat::qn::ExactMvaInPlace(site3_net, &site3_ws); }, 2000);
  const MvaBench approx = BenchMva(
      [&] {
        carat::qn::SchweitzerMvaInPlace(approx_net, &approx_ws,
                                        /*tolerance=*/1e-9,
                                        /*max_iterations=*/10000,
                                        /*warm_start=*/true);
      },
      2000);

  // ---- Lockstep batch vs scalar Schweitzer (gate armed on every host). -----
  const BatchBench batch = BenchBatchSchweitzer();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_solver\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"sweep\": {\n"
               "    \"workloads\": 4,\n"
               "    \"points_per_workload\": 8,\n"
               "    \"think_times_per_point\": %zu,\n"
               "    \"jobs\": %d,\n"
               "    \"reps\": %d,\n"
               "    \"serial_ms_median\": %.3f,\n"
               "    \"parallel_ms_median\": %.3f,\n"
               "    \"speedup_median\": %.3f,\n"
               "    \"speedup_min\": %.3f,\n"
               "    \"speedup_max\": %.3f,\n"
               "    \"speedup_gate_armed\": %s,\n"
               "    \"identical_output\": %s\n"
               "  },\n"
               "  \"exact_mva_workspace\": {\n"
               "    \"solves_per_s\": %.1f,\n"
               "    \"allocs_per_call_warm\": %llu\n"
               "  },\n"
               "  \"exact_mva_site_2q\": {\n"
               "    \"chains\": 6,\n"
               "    \"queueing_centers\": 2,\n"
               "    \"solves_per_s\": %.1f,\n"
               "    \"allocs_per_call_warm\": %llu\n"
               "  },\n"
               "  \"exact_mva_site_3q\": {\n"
               "    \"chains\": 6,\n"
               "    \"queueing_centers\": 3,\n"
               "    \"solves_per_s\": %.1f,\n"
               "    \"allocs_per_call_warm\": %llu\n"
               "  },\n"
               "  \"schweitzer_mva_workspace\": {\n"
               "    \"solves_per_s\": %.1f,\n"
               "    \"allocs_per_call_warm\": %llu\n"
               "  },\n"
               "  \"batch_schweitzer\": {\n"
               "    \"lane_width\": %zu,\n"
               "    \"simd_double_lanes\": %zu,\n"
               "    \"scalar_solves_per_s\": %.1f,\n"
               "    \"batch_solves_per_s\": %.1f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"speedup_gate_armed\": true,\n"
               "    \"bit_identical\": %s,\n"
               "    \"allocs_per_call_warm\": %llu\n"
               "  }\n"
               "}\n",
               hw, kThinkTimes, jobs, kSweepReps, serial_ms, parallel_ms,
               speedup,
               *std::min_element(sweep_ratios.begin(), sweep_ratios.end()),
               *std::max_element(sweep_ratios.begin(), sweep_ratios.end()),
               sweep_gate_armed ? "true" : "false",
               identical ? "true" : "false", exact.solves_per_s,
               static_cast<unsigned long long>(exact.allocs_per_call),
               exact_site2.solves_per_s,
               static_cast<unsigned long long>(exact_site2.allocs_per_call),
               exact_site3.solves_per_s,
               static_cast<unsigned long long>(exact_site3.allocs_per_call),
               approx.solves_per_s,
               static_cast<unsigned long long>(approx.allocs_per_call),
               static_cast<std::size_t>(carat::qn::kMvaBatchLaneWidth),
               carat::qn::MvaCompiledSimdDoubleLanes(),
               batch.scalar_solves_per_s, batch.batch_solves_per_s,
               batch.speedup, batch.bit_identical ? "true" : "false",
               static_cast<unsigned long long>(batch.batch_allocs_per_call));
  std::fclose(f);

  std::printf(
      "sweep: serial %.1f ms, parallel(%d jobs) %.1f ms (medians), speedup "
      "%.2fx median of %d, identical=%s (host has %u hardware threads)\n",
      serial_ms, jobs, parallel_ms, speedup, kSweepReps,
      identical ? "yes" : "NO", hw);
  std::printf("exact MVA (warm workspace): %.0f solves/s, %llu allocs/call\n",
              exact.solves_per_s,
              static_cast<unsigned long long>(exact.allocs_per_call));
  std::printf(
      "exact MVA, 6-chain site (2 / 3 queueing centers): %.0f / %.0f "
      "solves/s, %llu / %llu allocs/call\n",
      exact_site2.solves_per_s, exact_site3.solves_per_s,
      static_cast<unsigned long long>(exact_site2.allocs_per_call),
      static_cast<unsigned long long>(exact_site3.allocs_per_call));
  std::printf(
      "schweitzer MVA (warm workspace): %.0f solves/s, %llu allocs/call\n",
      approx.solves_per_s,
      static_cast<unsigned long long>(approx.allocs_per_call));
  std::printf(
      "batch schweitzer (%zu lanes, %zu simd double lanes): scalar %.0f "
      "solves/s, batch %.0f solves/s, speedup %.2fx, identical=%s, "
      "%llu allocs/call\n",
      static_cast<std::size_t>(carat::qn::kMvaBatchLaneWidth),
      carat::qn::MvaCompiledSimdDoubleLanes(), batch.scalar_solves_per_s,
      batch.batch_solves_per_s, batch.speedup,
      batch.bit_identical ? "yes" : "NO",
      static_cast<unsigned long long>(batch.batch_allocs_per_call));
  if (!identical) return 1;
  if (exact.allocs_per_call != 0 || exact_site2.allocs_per_call != 0 ||
      exact_site3.allocs_per_call != 0 || approx.allocs_per_call != 0) {
    std::fprintf(stderr, "FAIL: warm-workspace MVA solve allocated\n");
    return 1;
  }
  if (sweep_gate_armed && speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: sweep speedup %.2fx < 1.5x with %u hardware "
                 "threads\n",
                 speedup, hw);
    return 1;
  }
  if (!batch.bit_identical) {
    std::fprintf(stderr, "FAIL: batch lanes not bit-identical to scalar\n");
    return 1;
  }
  if (batch.batch_allocs_per_call != 0) {
    std::fprintf(stderr, "FAIL: warm-workspace batch solve allocated\n");
    return 1;
  }
  if (batch.speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: batch speedup %.2fx < 2.0x at lane width %zu\n",
                 batch.speedup,
                 static_cast<std::size_t>(carat::qn::kMvaBatchLaneWidth));
    return 1;
  }
  return 0;
}
