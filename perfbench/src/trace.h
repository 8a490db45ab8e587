// In-memory span recorder for the traced runs. The benchmark wraps each call
// into a module's public API in a span; spans of one operation share a
// request id and name their parent, so a layer's self time is its span's
// duration minus the part its child spans cover. Spans stay in memory while
// the run measures and are written out (CSV) when it ends; spans.py
// computes the per-layer self times and trace.covered_share from that file.
//
// Naming: a span's layer is its name up to the first '.'. Root spans named
// "op.*" are benchmark operations; trace.covered_share is computed over them.
// Other root spans (TCP round trips, set-up calls) are kept for their own
// durations.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// A fresh span id (ids start at 1; 0 means "no parent").
  std::uint64_t NewId() { return next_id_++; }

  /// Records a finished span.
  void Add(std::uint64_t id, std::uint64_t parent, std::uint64_t request,
           const std::string& name, Clock::time_point start,
           Clock::time_point end);

  /// Durations (µs) of every span named `name`.
  Samples Durations(const std::string& name) const;

  /// Writes "request,id,parent,name,start_ns,end_ns" rows (times relative to
  /// the tracer's creation). Returns false on I/O failure.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    int name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  int Intern(const std::string& name);

  Clock::time_point epoch_;
  std::uint64_t next_id_ = 1;
  std::vector<std::string> names_;
  std::map<std::string, int> name_index_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
