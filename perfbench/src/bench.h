// Shared pieces of the perfbench workloads: run configuration, the metric
// and failure ledger a workload fills in, and latency sample summaries.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}
inline double Millis(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (CSV); a traced run needs it.
  std::string spans_path;
};

/// The number of CPUs the process may run on, as at start-up.
int AllowedCpuCount();

/// Runs the calling thread, and the threads it starts from now on, on the
/// k-th CPU (modulo AllowedCpuCount()) the process was allowed at start-up.
/// Workloads move each operation to the next CPU on every pass, so its
/// repeats land on every CPU: on a virtualised host one vCPU can run the same
/// code 1.5x slower than the others for seconds at a time, and an
/// operation's fastest repeat then comes from a CPU that was not slowed.
bool RunOnCpu(std::size_t k);

/// Undoes RunOnCpu: the calling thread may run on every allowed CPU again.
bool RunOnAllCpus();

/// Timed passes for a run of `seconds`: the work is fixed by the arguments,
/// never by the clock, so a slow build measures the same operations as a
/// fast one. `nominal_pass_s` is a pass's length on the reference host.
int PassesFor(int seconds, double nominal_pass_s);

/// A run's set-up times. Set-ups are timed throughout the run (between the
/// operations where the work allows), and the timings fall into consecutive
/// windows of kWindowS seconds. A window's sample is its fastest set-up, and
/// the run reports the median over its windows: several set-ups, each
/// window's fastest filtered from the host's sub-second slow spells.
class SetupTimes {
 public:
  static constexpr double kWindowS = 2.0;
  /// Times one call of `setup`, divided by `per_call` (the set-ups it makes).
  void Time(const std::function<void()>& setup, int per_call = 1);
  double Median() const;

 private:
  Clock::time_point first_;
  std::vector<double> best_s_;  // by window
};

/// One operation class's latencies (any unit; callers keep it consistent).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  /// Lower median (nearest rank).
  double P50() const;
  /// Nearest-rank percentile, `p` in [0, 100].
  double Percentile(double p) const;
  /// The highest percentile with at least ten samples beyond it, the
  /// eleventh-largest value, when there are more than kTailMinSamples
  /// samples; the maximum otherwise (the eleventh-largest of a few dozen
  /// samples is no tail).
  double Tail() const;
  static constexpr std::size_t kTailMinSamples = 100;
  /// The percentile Tail() reports, in [0, 100].
  double TailPercent() const;
  double Sum() const;

 private:
  std::vector<double> Sorted() const;
  std::vector<double> values_;
};

/// The fastest time of each of a run's operations over its repeats. An
/// operation is one fixed piece of work (a deck entry, a scenario, a query
/// at one stream position) that every pass repeats. On a host shared with
/// other tenants the same work runs up to 1.8x slower for stretches of
/// seconds, while its fastest repeat over a run moves by a few per cent; the
/// fastest repeat is therefore the cost the end-to-end figures are built on.
class Fastest {
 public:
  explicit Fastest(std::size_t ops = 0) : best_(ops, -1.0) {}
  void Add(std::size_t op, double v) {
    if (best_[op] < 0.0 || v < best_[op]) best_[op] = v;
  }
  /// The fastest repeats of the operations `ops` (all when empty).
  Samples Of(const std::vector<int>& ops = {}) const;
  double operator[](std::size_t op) const { return best_[op]; }
  std::size_t size() const { return best_.size(); }

 private:
  std::vector<double> best_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports: metrics in print order, the operation count and
/// every failed operation or failed correctness check.
class Outcome {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records one more attempted operation (or check).
  void Attempt(long long n = 1) { attempted_ += n; }
  /// Records one failed operation or check; the first few reasons are kept
  /// for the report.
  void Fail(const std::string& why);
  /// Attempt() plus Fail(why) when `ok` is false.
  void Check(bool ok, const std::string& why);

  const std::vector<Metric>& metrics() const { return metrics_; }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::vector<Metric> metrics_;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> reasons_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
