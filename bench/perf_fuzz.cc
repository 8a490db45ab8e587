// perf_fuzz - establishes the fuzz subsystem's perf trajectory. Measures
//
//   1. generator throughput: scenarios drawn (and validated) per second —
//      generation must stay cheap enough that checking, not drawing,
//      dominates the fuzz loop;
//   2. checking throughput: scenarios per second through the full
//      model-level rule set (the nightly budget in scenario counts follows
//      directly from this number);
//
// and, as a hard gate, requires the measured run to be violation-free: a
// perf PR that breaks a metamorphic relation fails here before it ever
// reaches the nightly fuzzer.
//
// Results land in BENCH_fuzz.json (cwd) so successive PRs can track the
// numbers. Usage: perf_fuzz [--scenarios N] [--out FILE]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "fuzz/fuzzer.h"
#include "util/random.h"

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedS(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  int scenarios = 150;
  std::string out_path = "BENCH_fuzz.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scenarios" && i + 1 < argc) {
      scenarios = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: perf_fuzz [--scenarios N] [--out FILE]\n");
      return 2;
    }
  }

  // ---- 1. Generator throughput. --------------------------------------------
  const int kGenDraws = 5000;
  double gen_per_s = 0.0;
  {
    carat::util::Rng rng(99);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kGenDraws; ++i) {
      const carat::fuzz::Scenario s = carat::fuzz::GenerateScenario(&rng);
      if (s.input.sites.empty()) {
        std::fprintf(stderr, "FAIL: generator produced an empty scenario\n");
        return 1;
      }
    }
    gen_per_s = kGenDraws / ElapsedS(start);
  }

  // ---- 2. Checking throughput + the zero-violation gate. -------------------
  carat::fuzz::FuzzOptions opts;
  opts.seed = 20260807;
  opts.num_scenarios = scenarios;
  opts.minimize = false;
  const Clock::time_point start = Clock::now();
  const carat::fuzz::FuzzReport report = carat::fuzz::RunFuzz(opts);
  const double check_s = ElapsedS(start);

  for (const carat::fuzz::Violation& v : report.violations) {
    std::fprintf(stderr, "FAIL: %s: %s\n", carat::fuzz::RuleName(v.rule),
                 v.detail.c_str());
  }
  if (!report.violations.empty()) return 1;

  const double scen_per_s =
      check_s > 0 ? report.scenarios / check_s : 0.0;
  std::printf("generator: %.0f scenarios/s\n", gen_per_s);
  std::printf("checker:   %d scenarios, %lld relation checks in %.2f s "
              "(%.1f scenarios/s), 0 violations\n",
              report.scenarios, report.stats.checked, check_s, scen_per_s);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_fuzz\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"generator\": {\n"
               "    \"draws\": %d,\n"
               "    \"scenarios_per_s\": %.1f\n"
               "  },\n"
               "  \"checker\": {\n"
               "    \"scenarios\": %d,\n"
               "    \"relation_checks\": %lld,\n"
               "    \"skipped\": %lld,\n"
               "    \"seconds\": %.3f,\n"
               "    \"scenarios_per_s\": %.1f,\n"
               "    \"violations\": %zu\n"
               "  }\n"
               "}\n",
               std::thread::hardware_concurrency(), kGenDraws, gen_per_s,
               report.scenarios, report.stats.checked,
               report.stats.skipped, check_s, scen_per_s,
               report.violations.size());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
