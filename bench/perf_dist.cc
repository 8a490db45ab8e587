// perf_dist - establishes the distributed testbed's perf trajectory. Spawns
// real carat_sited processes over loopback and measures
//
//   1. cross-check fidelity: a 2-site mb8 run with resident users must drain,
//      pass every site's shadow-copy audit, and land within the calibrated
//      tolerances of the in-process RunTestbed reference (the distributed
//      system and the event simulation execute the same protocol over the
//      same cost tables);
//   2. open-loop serving throughput: the same 2-site mesh with no resident
//      users, driven by the coordinated-omission-free load generator at a
//      fixed arrival schedule. Every scheduled operation must be answered,
//      and the sustained commit rate must clear an absolute floor; p50/p99
//      come from the per-connection histograms merged via
//      rpc::LatencyHistogram::Merge.
//
// Results land in BENCH_dist.json (cwd), with the host's core count, so
// successive changes can track the numbers.
// Usage: perf_dist [--out FILE] [--sited-bin PATH]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/loadgen.h"
#include "dist/runtime.h"

namespace {

/// The open-loop phase must sustain at least this many committed txn/s.
/// Capacity is bounded by virtual time, not host speed: an mb8 mix
/// transaction costs ~1.2-1.5 s of scaled real time end to end, and 32
/// in-flight slots put the loopback ceiling near 12 txn/s. The floor sits
/// at two-thirds of that so only a real regression (stranded handlers, lost
/// replies, serialization in the mesh) trips it, not CI jitter.
constexpr double kMinSustainedTxnPerS = 8.0;

/// Offered open-loop arrival rate (transactions per real second). Offered
/// above the ~12 txn/s capacity on purpose: the percentiles must show the
/// queueing delay coordinated omission would hide.
constexpr double kOfferedTxnPerS = 30.0;

carat::dist::DistRunOptions BaseOptions(const std::string& sited_bin) {
  carat::dist::DistRunOptions options;
  options.config.workload = "mb8";
  options.config.requests_per_txn = 8;
  options.config.sites = 2;
  options.config.scale = 0.1;
  options.config.seed = 20260808;
  options.warmup_real_ms = 800.0;
  options.measure_real_ms = 2500.0;
  options.sited_bin = sited_bin;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_dist.json";
  std::string sited_bin;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--sited-bin" && i + 1 < argc) {
      sited_bin = argv[++i];
    } else {
      std::fprintf(stderr, "usage: perf_dist [--out FILE] [--sited-bin PATH]\n");
      return 2;
    }
  }
  if (sited_bin.empty()) sited_bin = carat::dist::ResolveSitedBinary();
  if (sited_bin.empty()) {
    std::fprintf(stderr, "FAIL: carat_sited binary not found (build tools/ "
                         "or pass --sited-bin)\n");
    return 1;
  }
  bool ok = true;

  // ---- 1. Cross-check against the in-process reference. --------------------
  carat::dist::DistRunResult check;
  {
    auto options = BaseOptions(sited_bin);
    check = carat::dist::RunDistributed(options);
    if (!check.ok) {
      std::fprintf(stderr, "FAIL: cross-check run: %s\n", check.error.c_str());
      ok = false;
    } else {
      if (!check.all_drained || !check.all_audits_ok) {
        std::fprintf(stderr, "FAIL: cross-check drained=%d audits=%d\n",
                     check.all_drained, check.all_audits_ok);
        ok = false;
      }
      if (!check.checked || !check.within_tolerance) {
        std::fprintf(stderr,
                     "FAIL: cross-check outside tolerance (throughput err "
                     "%.3f, response err %.3f, restart err %.3f)\n",
                     check.throughput_rel_err, check.response_rel_err,
                     check.restart_abs_err);
        ok = false;
      }
    }
  }

  // ---- 2. Open-loop load generation against an empty mesh. -----------------
  carat::dist::DistRunResult serve;
  carat::dist::LoadgenResult load;
  double sustained_txn_per_s = 0.0;
  {
    auto options = BaseOptions(sited_bin);
    options.config.spawn_users = false;
    options.check = false;
    options.during_measure =
        [&](const std::vector<std::string>& endpoints) {
          // Let every site pass its warm-up ResetStats first, so the sites'
          // ext_commits counters see the whole load-generator run.
          carat::dist::RtClock::SleepRealMs(options.warmup_real_ms + 300.0);
          carat::dist::LoadgenOptions lg;
          lg.targets = endpoints;
          lg.connections = 4;
          lg.ops_per_txn = 4;
          lg.type = "mix";
          lg.rate_per_s = kOfferedTxnPerS;
          lg.duration_s = 2.0;
          load = carat::dist::RunLoadgen(lg);
        };
    serve = carat::dist::RunDistributed(options);
    if (!serve.ok || !load.ok) {
      std::fprintf(stderr, "FAIL: open-loop run: %s%s\n", serve.error.c_str(),
                   load.error.c_str());
      ok = false;
    } else {
      if (load.errors != 0 || load.completed != load.scheduled) {
        std::fprintf(stderr,
                     "FAIL: open-loop lost operations: scheduled=%llu "
                     "completed=%llu errors=%llu\n",
                     static_cast<unsigned long long>(load.scheduled),
                     static_cast<unsigned long long>(load.completed),
                     static_cast<unsigned long long>(load.errors));
        ok = false;
      }
      sustained_txn_per_s =
          load.elapsed_s > 0.0
              ? static_cast<double>(load.committed) / load.elapsed_s
              : 0.0;
      if (sustained_txn_per_s < kMinSustainedTxnPerS) {
        std::fprintf(stderr,
                     "FAIL: sustained %.1f txn/s below the %.0f txn/s floor\n",
                     sustained_txn_per_s, kMinSustainedTxnPerS);
        ok = false;
      }
      if (serve.ext_commits != load.committed) {
        std::fprintf(stderr,
                     "FAIL: sites report %llu external commits, load "
                     "generator observed %llu\n",
                     static_cast<unsigned long long>(serve.ext_commits),
                     static_cast<unsigned long long>(load.committed));
        ok = false;
      }
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_dist\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"cross_check\": {\n"
               "    \"sites\": 2,\n"
               "    \"workload\": \"mb8\",\n"
               "    \"alpha_rtt_real_ms\": %.4f,\n"
               "    \"alpha_virtual_ms\": %.4f,\n"
               "    \"commits\": %llu,\n"
               "    \"global_deadlocks\": %llu,\n"
               "    \"messages_sent\": %llu,\n"
               "    \"dist_txn_per_s\": %.3f,\n"
               "    \"ref_txn_per_s\": %.3f,\n"
               "    \"dist_response_ms\": %.3f,\n"
               "    \"ref_response_ms\": %.3f,\n"
               "    \"throughput_rel_err\": %.4f,\n"
               "    \"response_rel_err\": %.4f,\n"
               "    \"restart_abs_err\": %.4f,\n"
               "    \"within_tolerance\": %s\n"
               "  },\n"
               "  \"open_loop\": {\n"
               "    \"offered_per_s\": %.1f,\n"
               "    \"scheduled\": %llu,\n"
               "    \"completed\": %llu,\n"
               "    \"committed\": %llu,\n"
               "    \"retries\": %llu,\n"
               "    \"errors\": %llu,\n"
               "    \"elapsed_s\": %.3f,\n"
               "    \"sustained_txn_per_s\": %.1f,\n"
               "    \"floor_txn_per_s\": %.1f,\n"
               "    \"p50_ms\": %.3f,\n"
               "    \"p95_ms\": %.3f,\n"
               "    \"p99_ms\": %.3f,\n"
               "    \"mean_ms\": %.3f\n"
               "  }\n"
               "}\n",
               std::thread::hardware_concurrency(), check.alpha_rtt_real_ms,
               check.alpha_virtual_ms,
               static_cast<unsigned long long>(check.commits),
               static_cast<unsigned long long>(check.global_deadlocks),
               static_cast<unsigned long long>(check.messages_sent),
               check.dist_txn_per_s, check.ref_txn_per_s,
               check.dist_response_ms, check.ref_response_ms,
               check.throughput_rel_err, check.response_rel_err,
               check.restart_abs_err,
               check.within_tolerance ? "true" : "false", kOfferedTxnPerS,
               static_cast<unsigned long long>(load.scheduled),
               static_cast<unsigned long long>(load.completed),
               static_cast<unsigned long long>(load.committed),
               static_cast<unsigned long long>(load.retries),
               static_cast<unsigned long long>(load.errors), load.elapsed_s,
               sustained_txn_per_s, kMinSustainedTxnPerS, load.p50_ms,
               load.p95_ms, load.p99_ms, load.mean_ms);
  std::fclose(f);

  std::printf("cross-check: %.1f txn/s distributed vs %.1f reference "
              "(throughput err %.1f%%, response err %.1f%%, restart err "
              "%.3f, alpha %.3f ms RTT)\n",
              check.dist_txn_per_s, check.ref_txn_per_s,
              check.throughput_rel_err * 100.0, check.response_rel_err * 100.0,
              check.restart_abs_err, check.alpha_rtt_real_ms);
  std::printf("open-loop: %llu/%llu ops answered, %.1f committed txn/s "
              "sustained (floor %.0f), p50 %.2f ms, p99 %.2f ms\n",
              static_cast<unsigned long long>(load.completed),
              static_cast<unsigned long long>(load.scheduled),
              sustained_txn_per_s, kMinSustainedTxnPerS, load.p50_ms,
              load.p99_ms);
  return ok ? 0 : 1;
}
