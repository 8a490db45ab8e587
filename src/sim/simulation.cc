#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace carat::sim {

Kernel::Kernel(int num_sites)
    : per_site_(static_cast<std::size_t>(num_sites)) {
  assert(num_sites >= 1);
}

void Kernel::Schedule(int site, double delay, SmallFn fn) {
  assert(site >= 0 && site < num_sites());
  assert(delay >= 0.0 && "negative or NaN event delay");  // NaN fails >=
  const int origin = current_site_ >= 0 ? current_site_ : site;
  PerSite& ps = per_site_[origin];
  heap_.push_back(
      Event{ps.clock + delay, site, origin, ps.next_seq++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), After);
}

void Kernel::RunUntil(double until) {
  const int saved = current_site_;
  while (!heap_.empty() && heap_.front().time <= until) {
    std::pop_heap(heap_.begin(), heap_.end(), After);
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    PerSite& ps = per_site_[ev.site];
    ps.clock = ev.time;
    ++ps.executed;
    current_site_ = ev.site;
    ev.fn();
  }
  current_site_ = saved;
  for (PerSite& ps : per_site_) {
    if (ps.clock < until) ps.clock = until;
  }
}

std::uint64_t Kernel::events_executed() const {
  std::uint64_t total = 0;
  for (const PerSite& ps : per_site_) total += ps.executed;
  return total;
}

}  // namespace carat::sim
