// Testbed perf trajectory: replication-parallel throughput of the serial
// event kernel. One distributed design point (mb8, n=8, 4 nodes, alpha =
// 5 ms, 400 s window) is run for 8 seeds, once one after another on the
// calling thread and once fanned out over an exec::ThreadPool of
// hardware_concurrency threads. Every seed's fingerprint must match between
// the two on every host and every repeat -- a speedup that changes results
// would be a bug, not a win.
//
// Serial and parallel passes are interleaved after an untimed warm-up, and
// the gate reads the median of the per-repeat ratios, so a noisy neighbor
// on a shared host cannot flip it. The >= 1.5x gate arms on hosts with at
// least 4 hardware threads. Results land in BENCH_testbed.json (cwd).
// Usage: perf_testbed [--out FILE] [--measure-ms N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "carat/testbed.h"
#include "exec/thread_pool.h"
#include "workload/spec.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSeeds = 8;
constexpr std::uint64_t kFirstSeed = 5;
constexpr int kReps = 7;  // interleaved serial/parallel pairs; gate = median

struct Pass {
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::vector<std::string> fingerprints = std::vector<std::string>(kSeeds);
  bool ok = true;
};

// Runs every seed, serially when `pool` is null.
Pass RunSeeds(const carat::model::ModelInput& input, double measure_ms,
              carat::exec::ThreadPool* pool) {
  Pass pass;
  std::vector<carat::TestbedResult> results(kSeeds);
  const Clock::time_point start = Clock::now();
  carat::exec::ParallelFor(pool, 0, kSeeds, [&](std::size_t i) {
    carat::TestbedOptions opts;
    opts.seed = kFirstSeed + i;
    opts.warmup_ms = 20'000;
    opts.measure_ms = measure_ms;
    results[i] = carat::RunTestbed(input, opts);
  });
  pass.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  for (std::size_t i = 0; i < kSeeds; ++i) {
    const carat::TestbedResult& r = results[i];
    if (!r.ok || !r.database_consistent) {
      std::fprintf(stderr, "FAIL: seed %llu: %s\n",
                   static_cast<unsigned long long>(kFirstSeed + i),
                   r.ok ? "database inconsistent" : r.error.c_str());
      pass.ok = false;
    }
    pass.events += r.events;
    pass.fingerprints[i] = carat::TestbedResultFingerprint(r);
  }
  return pass;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_testbed.json";
  double measure_ms = 400'000.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--measure-ms") == 0 && i + 1 < argc) {
      measure_ms = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: perf_testbed [--out FILE] [--measure-ms N]\n");
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  auto wl = carat::workload::MakeMB8(8, 4);
  wl.comm_delay_ms = 5.0;
  const carat::model::ModelInput input = wl.ToModelInput();
  carat::exec::ThreadPool pool(0);  // hardware_concurrency threads

  // Untimed warm-up; the serial pass is the reference. The parallel
  // warm-up keeps every worker busy for 2 s: on a 4-vCPU VM the guest ran
  // all four workers of a burst that follows an idle spell on one CPU for
  // its first ~1.2 s, which reads as no scaling at all.
  const Pass reference = RunSeeds(input, measure_ms, nullptr);
  if (!reference.ok) return 1;
  bool identical = true;
  for (const Clock::time_point warm = Clock::now();
       std::chrono::duration<double>(Clock::now() - warm).count() < 2.0;) {
    identical = RunSeeds(input, measure_ms, &pool).fingerprints ==
                    reference.fingerprints &&
                identical;
  }

  std::vector<double> serial_ms, parallel_ms, ratios;
  bool ok = true;
  for (int rep = 0; rep < kReps; ++rep) {
    const Pass serial = RunSeeds(input, measure_ms, nullptr);
    const Pass parallel = RunSeeds(input, measure_ms, &pool);
    ok = ok && serial.ok && parallel.ok;
    identical = identical && serial.fingerprints == reference.fingerprints &&
                parallel.fingerprints == reference.fingerprints;
    serial_ms.push_back(serial.wall_ms);
    parallel_ms.push_back(parallel.wall_ms);
    ratios.push_back(parallel.wall_ms > 0.0 ? serial.wall_ms / parallel.wall_ms
                                            : 0.0);
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: a seed's fingerprint differs between runs or between "
                 "the serial and the parallel pass\n");
    ok = false;
  }
  const double speedup = Median(ratios);
  const double serial_med = Median(serial_ms);
  const double parallel_med = Median(parallel_ms);
  const auto per_s = [&](double ms) {
    return ms > 0.0 ? 1000.0 * reference.events / ms : 0.0;
  };
  const bool gate_armed = hw >= 4;
  if (gate_armed && speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: replication speedup %.2fx < 1.5x with %u hw threads\n",
                 speedup, hw);
    ok = false;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_testbed\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"workload\": \"mb8 n=8 nodes=4 alpha=5ms\",\n"
               "  \"measure_ms\": %.0f,\n"
               "  \"seeds\": %zu,\n"
               "  \"reps\": %d,\n"
               "  \"events_per_seed_set\": %llu,\n"
               "  \"serial\": {\n"
               "    \"threads\": 1,\n"
               "    \"median_wall_ms\": %.3f,\n"
               "    \"events_per_s\": %.1f\n"
               "  },\n"
               "  \"parallel\": {\n"
               "    \"threads\": %zu,\n"
               "    \"median_wall_ms\": %.3f,\n"
               "    \"events_per_s\": %.1f\n"
               "  },\n"
               "  \"speedup_median\": %.3f,\n"
               "  \"speedup_min\": %.3f,\n"
               "  \"speedup_max\": %.3f,\n"
               "  \"speedup_gate_armed\": %s,\n"
               "  \"byte_identical\": %s\n"
               "}\n",
               hw, measure_ms, kSeeds, kReps,
               static_cast<unsigned long long>(reference.events), serial_med,
               per_s(serial_med), pool.size(), parallel_med,
               per_s(parallel_med), speedup,
               *std::min_element(ratios.begin(), ratios.end()),
               *std::max_element(ratios.begin(), ratios.end()),
               gate_armed ? "true" : "false", identical ? "true" : "false");
  std::fclose(f);

  std::printf("serial:   %zu seeds, %llu events in %.1f ms median "
              "(%.0f events/s)\n",
              kSeeds, static_cast<unsigned long long>(reference.events),
              serial_med, per_s(serial_med));
  std::printf("parallel: %zu threads, %.1f ms median (%.0f events/s), "
              "speedup %.2fx median of %d (hw=%u)\n",
              pool.size(), parallel_med, per_s(parallel_med), speedup, kReps,
              hw);
  std::printf("byte-identical: %s\n", identical ? "yes" : "NO");
  return ok ? 0 : 1;
}
