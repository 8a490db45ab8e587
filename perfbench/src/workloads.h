// The three perfbench workloads. Each one fills an Outcome with the
// end-to-end metrics (untraced run) or its per-layer metrics (traced run),
// counts its operations and records every failed operation or check.
//
// Every pass of a run repeats the same operations; an operation's cost is
// its fastest repeat (see Fastest). End-to-end metrics every workload
// reports:
//   setup_s           median over 2 s windows of each window's fastest
//                     set-up (see SetupTimes)
//   throughput_per_s  operations per second at the fastest repeats
//   light_p50_ms / light_tail_ms   over the workload's light operations
//   heavy_p50_ms / heavy_tail_ms   over the workload's heavy operations
// README.md lists which calls each class covers per workload.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Workload {
  const char* name;
  /// Threads the workload runs at once, the benchmark's own included. Each
  /// operation runs all of them on one CPU (see RunOnCpu): with one runnable
  /// thread at a time, this also keeps hand-offs off the host's cross-CPU
  /// wake-up path, whose latency on a virtualised host varies by an order of
  /// magnitude.
  int threads;
  /// Per-layer metrics this workload measures (beyond the shared
  /// trace.overhead_share and sample counts).
  std::vector<MetricSpec> (*layer_metrics)();
  void (*run)(const RunConfig& config, Tracer* tracer, Outcome* out);
};

std::vector<MetricSpec> WhatifTcpLayerMetrics();
void RunWhatifTcp(const RunConfig& config, Tracer* tracer, Outcome* out);

std::vector<MetricSpec> TestbedMixLayerMetrics();
void RunTestbedMix(const RunConfig& config, Tracer* tracer, Outcome* out);

std::vector<MetricSpec> FuzzModelLayerMetrics();
void RunFuzzModel(const RunConfig& config, Tracer* tracer, Outcome* out);

/// Sets the four light_/heavy_ end-to-end latency metrics, each over the
/// fastest repeats of one class's operations.
void ReportLatencies(const Samples& light_ms, const Samples& heavy_ms,
                     Outcome* out);

/// Sets the passes (repeats of each operation), the classes' operation
/// counts and their tail percentiles (traced run).
void ReportSampleCounts(const Samples& light_ms, const Samples& heavy_ms,
                        int passes, Outcome* out);

/// trace.overhead_share: the share of untraced throughput lost to tracing.
void ReportOverhead(double untraced_per_s, double traced_per_s, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
