// perfbench: one workload run of the carat benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0
//   perfbench --workload NAME --seed N --seconds S --trace 1 --spans FILE
//   (either with [--revision REV])
//
// Prints a run header, the failed checks (if any) and, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced (0 where the workload does
// not use the layer). A traced run writes its spans to FILE; run.py derives
// trace.covered_share and the per-layer self times from them. Refuses
// (exit 2) a build that is not Release and a workload whose threads exceed
// the CPUs this process may run on.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

void ReportLatencies(const Samples& light_ms, const Samples& heavy_ms,
                     Outcome* out) {
  out->Set("light_p50_ms", light_ms.P50(), "ms");
  out->Set("light_tail_ms", light_ms.Tail(), "ms");
  out->Set("heavy_p50_ms", heavy_ms.P50(), "ms");
  out->Set("heavy_tail_ms", heavy_ms.Tail(), "ms");
}

void ReportSampleCounts(const Samples& light_ms, const Samples& heavy_ms,
                        int passes, Outcome* out) {
  out->Set("passes", passes, "count");
  out->Set("light.samples", static_cast<double>(light_ms.size()), "count");
  out->Set("light.tail_percentile", light_ms.TailPercent(), "%");
  out->Set("heavy.samples", static_cast<double>(heavy_ms.size()), "count");
  out->Set("heavy.tail_percentile", heavy_ms.TailPercent(), "%");
}

void ReportOverhead(double untraced_per_s, double traced_per_s, Outcome* out) {
  out->Set("trace.overhead_share", 1.0 - traced_per_s / untraced_per_s,
           "ratio");
}

namespace {

const Workload kWorkloads[] = {
    {"whatif_tcp", 4, WhatifTcpLayerMetrics, RunWhatifTcp},
    {"testbed_mix", 3, TestbedMixLayerMetrics, RunTestbedMix},
    {"fuzz_model", 3, FuzzModelLayerMetrics, RunFuzzModel},
};

std::vector<MetricSpec> EndToEndMetrics() {
  return {{"setup_s", "s"},         {"throughput_per_s", "1/s"},
          {"light_p50_ms", "ms"},   {"light_tail_ms", "ms"},
          {"heavy_p50_ms", "ms"},   {"heavy_tail_ms", "ms"}};
}

/// The per-layer metrics this binary measures, in print order: the shared
/// ones, then each workload's own. (run.py adds those derived from spans.)
std::vector<MetricSpec> PerLayerMetrics() {
  std::vector<MetricSpec> m = {
      {"trace.overhead_share", "ratio"}, {"passes", "count"},
      {"light.samples", "count"},        {"light.tail_percentile", "%"},
      {"heavy.samples", "count"},        {"heavy.tail_percentile", "%"},
  };
  for (const Workload& w : kWorkloads) {
    for (const MetricSpec& s : w.layer_metrics()) m.push_back(s);
  }
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--revision REV]\n"
               "       (--trace 1 needs --spans)\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans" && has_value) {
      config.spans_path = argv[++i];
    } else if (arg == "--revision" && has_value) {
      revision = argv[++i];
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr || config.seconds < 1 ||
      config.trace == config.spans_path.empty()) {
    return Usage();
  }

  const int cpus = AllowedCpuCount();
  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d "
              "nproc=%d threads=%d cpu=one-per-operation,rotating build=%s "
              "compiler=\"%s\" revision=%s\n",
              workload->name, static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, cpus, workload->threads,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, revision.c_str());
  std::fflush(stdout);
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#endif
  if (!release) {
    std::fprintf(stderr, "refused: build type %s is not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (workload->threads > cpus) {
    std::fprintf(stderr, "refused: %s runs %d threads but nproc is %d\n",
                 workload->name, workload->threads, cpus);
    return 2;
  }

  if (!RunOnCpu(0)) {
    std::fprintf(stderr, "refused: cannot set the CPU affinity\n");
    return 2;
  }
  Tracer tracer;
  Outcome out;
  workload->run(config, &tracer, &out);

  const std::vector<MetricSpec> specs =
      config.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (config.trace && !tracer.WriteCsv(config.spans_path)) {
    out.Check(false, "cannot write spans to " + config.spans_path);
  }

  // Every listed metric once, in catalogue order; a traced run reports 0 for
  // the layers its workload does not use. A measured metric that is not
  // finite, or one the workload should have set and did not, is a failure.
  std::map<std::string, double> values;
  for (const Metric& m : out.metrics()) values[m.name] = m.value;
  if (config.trace) {
    for (const MetricSpec& s : workload->layer_metrics()) {
      if (values.count(s.name) == 0) {
        out.Check(false, s.name + " was not measured");
      }
    }
  }
  std::string json = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto it = values.find(specs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      out.Check(false, specs[i].name + " is not finite");
      v = 0.0;
    }
    if (it == values.end() && !config.trace) {
      out.Check(false, specs[i].name + " was not measured");
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", i ? ", " : "", specs[i].name.c_str(), v,
                  specs[i].unit.c_str());
    json += buf;
  }
  json += "}";
  for (const std::string& why : out.reasons()) {
    std::printf("# FAILED: %s\n", why.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              out.failed() == 0 ? "true" : "false", out.attempted(),
              out.failed(), json.c_str());
  return 0;
}
