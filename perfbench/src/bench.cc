#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace perfbench {

namespace {

/// The affinity mask the process started with.
const cpu_set_t& StartMask() {
  static const cpu_set_t mask = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  return mask;
}

}  // namespace

int AllowedCpuCount() { return CPU_COUNT(&StartMask()); }

bool RunOnCpu(std::size_t k) {
  std::size_t skip = k % static_cast<std::size_t>(AllowedCpuCount());
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &StartMask()) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

bool RunOnAllCpus() {
  return sched_setaffinity(0, sizeof(cpu_set_t), &StartMask()) == 0;
}

int PassesFor(int seconds, double nominal_pass_s) {
  const int passes = static_cast<int>(std::lround(seconds / nominal_pass_s));
  return std::max(1, passes);
}

void SetupTimes::Time(const std::function<void()>& setup, int per_call) {
  const Clock::time_point t0 = Clock::now();
  setup();
  const double s = Seconds(t0, Clock::now()) / per_call;
  if (best_s_.empty()) first_ = t0;
  const auto window = static_cast<std::size_t>(Seconds(first_, t0) / kWindowS);
  if (window >= best_s_.size()) best_s_.resize(window + 1, -1.0);
  if (best_s_[window] < 0.0 || s < best_s_[window]) best_s_[window] = s;
}

double SetupTimes::Median() const {
  Samples windows;
  for (double s : best_s_) {
    if (s >= 0.0) windows.Add(s);
  }
  return windows.P50();
}

std::vector<double> Samples::Sorted() const {
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  return v;
}

double Samples::P50() const { return Percentile(50.0); }

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  const std::vector<double> v = Sorted();
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double Samples::Tail() const {
  if (values_.empty()) return 0.0;
  const std::vector<double> v = Sorted();
  return v.size() > kTailMinSamples ? v[v.size() - 11] : v.back();
}

double Samples::TailPercent() const {
  if (values_.size() <= kTailMinSamples) return 100.0;
  const double n = static_cast<double>(values_.size());
  return 100.0 * (n - 10.0) / n;
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

Samples Fastest::Of(const std::vector<int>& ops) const {
  Samples out;
  if (ops.empty()) {
    for (double v : best_) out.Add(v);
  } else {
    for (int op : ops) out.Add(best_[op]);
  }
  return out;
}

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Outcome::Fail(const std::string& why) {
  ++failed_;
  if (reasons_.size() < 20) reasons_.push_back(why);
}

void Outcome::Check(bool ok, const std::string& why) {
  Attempt();
  if (!ok) Fail(why);
}

}  // namespace perfbench
