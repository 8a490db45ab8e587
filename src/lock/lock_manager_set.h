// Per-site lock managers behind one facade.
//
// CARAT keeps a lock table per site: each site's LockManager lives on that
// site's timeline and is only touched by events executing there. Global
// deadlocks (cycles spanning sites) are the distributed detector's job
// (txn::GlobalDeadlockDetector), whose probes travel between sites as
// messages.

#ifndef CARAT_LOCK_LOCK_MANAGER_SET_H_
#define CARAT_LOCK_LOCK_MANAGER_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "lock/lock_manager.h"
#include "sim/simulation.h"

namespace carat::lock {

class LockManagerSet {
 public:
  /// One coroutine-serving LockManager per site of `kernel`; a process at
  /// site s acquires with Acquire(at(s), SitePort{&kernel, s}, ...).
  explicit LockManagerSet(sim::Kernel& kernel);
  LockManagerSet(const LockManagerSet&) = delete;
  LockManagerSet& operator=(const LockManagerSet&) = delete;

  int num_sites() const { return static_cast<int>(sites_.size()); }
  LockManager& at(int site) { return *sites_[static_cast<std::size_t>(site)]; }
  const LockManager& at(int site) const {
    return *sites_[static_cast<std::size_t>(site)];
  }

  void set_victim_policy(VictimPolicy policy);
  void set_conflict_policy(ConflictPolicy policy);

  // --- aggregate statistics (sums over sites; not safe during RunUntil) ----
  std::uint64_t requests() const;
  std::uint64_t blocks() const;
  std::uint64_t local_deadlocks() const;
  std::uint64_t cancelled_waits() const;
  std::uint64_t conflict_aborts() const;
  std::size_t TotalHeld() const;
  void ResetStats();

 private:
  std::vector<std::unique_ptr<LockManager>> sites_;
};

}  // namespace carat::lock

#endif  // CARAT_LOCK_LOCK_MANAGER_SET_H_
