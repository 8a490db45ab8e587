#include "txn/probes.h"

#include <algorithm>

#include "sim/task.h"

namespace carat::txn {

GlobalDeadlockDetector::GlobalDeadlockDetector(sim::Kernel& kernel,
                                               net::Network& network,
                                               TxnRegistrySet& registry,
                                               std::vector<Node*> nodes,
                                               const Options& options)
    : kernel_(kernel),
      network_(network),
      registry_(registry),
      nodes_(std::move(nodes)),
      options_(options) {}

void GlobalDeadlockDetector::OnBlock(int node_index, GlobalTxnId waiter,
                                     const std::vector<GlobalTxnId>& holders) {
  // Local-only cycles are handled synchronously by the lock manager before
  // the waiter is enqueued. Probes must chase *every* waiting holder, not
  // just distributed ones: a global cycle may pass through a local
  // transaction (local -> distributed -> remote -> ... -> local), and the
  // unique-victim rule needs the cycle's highest-id member to launch its
  // own probe. Probes to holders that are not blocked die on evaluation.
  for (const GlobalTxnId holder : holders) {
    if (registry_.HomeOf(holder) == node_index) {
      // The holder's coordinator is right here, so consult it before paying
      // for a message: a holder that is running at this node (not waiting)
      // cannot extend a wait chain, and its probe would die on arrival.
      const SiteRegistry& reg = registry_.at(node_index);
      const int current = reg.CurrentNode(holder);
      if (current < 0) continue;  // already finished
      if (current == node_index &&
          !nodes_[static_cast<std::size_t>(node_index)]->locks().IsWaiting(
              holder)) {
        continue;
      }
    }
    ++probes_sent_;
    ProbeJourney(waiter, node_index, holder, node_index, 0,
                 std::max(waiter, holder));
  }
}

sim::Process GlobalDeadlockDetector::ProbeJourney(GlobalTxnId initiator,
                                                  int initiator_node,
                                                  GlobalTxnId target,
                                                  int at_node, int hops,
                                                  GlobalTxnId max_id) {
  if (hops >= options_.max_hops) co_return;
  // Leg 1: the target's home TM knows where the target currently operates.
  const int home = registry_.HomeOf(target);
  if (at_node != home) {
    co_await network_.Hop(home);
    at_node = home;
    co_await nodes_[static_cast<std::size_t>(at_node)]->TmHandle(
        options_.probe_cpu_ms);  // relay cost at the home TM
  }
  const int current = registry_.at(home).CurrentNode(target);
  if (current < 0) co_return;  // target finished: no cycle through it
  // Leg 2: evaluate at the node where the target operates (and would wait).
  if (current != at_node) {
    co_await network_.Hop(current);
    at_node = current;
  }
  co_await nodes_[static_cast<std::size_t>(at_node)]->TmHandle(
      options_.probe_cpu_ms);

  // Re-read the wait state after the delays: probes act on current truth.
  lock::LockManager& lm = nodes_[static_cast<std::size_t>(at_node)]->locks();
  if (!lm.IsWaiting(target)) co_return;
  for (const GlobalTxnId next : lm.WaitingFor(target)) {
    if (next == initiator) {
      // Cycle. Only the cycle's highest-id member declares the deadlock, so
      // simultaneous probes around the same cycle agree on one victim; the
      // suppressed probes rely on the winner (or the watchdog) acting.
      if (initiator >= max_id) {
        DeliverVictimAbort(initiator, initiator_node, at_node);
      }
      co_return;
    }
    // Keep chasing: `next` may be blocked at this or another node. Purely
    // local segments were already covered by local detection - but a chain
    // local -> distributed -> remote still needs the probe, so follow all.
    ++probes_sent_;
    ProbeJourney(initiator, initiator_node, next, at_node, hops + 1,
                 std::max(max_id, next));
  }
}

sim::Process GlobalDeadlockDetector::DeliverVictimAbort(GlobalTxnId initiator,
                                                        int initiator_node,
                                                        int from_node) {
  if (from_node != initiator_node) co_await network_.Hop(initiator_node);
  co_await nodes_[static_cast<std::size_t>(initiator_node)]->TmHandle(
      options_.probe_cpu_ms);
  // The victim may have been granted the lock or aborted in the meantime;
  // CancelWait is a no-op then and the watchdog re-detects if needed.
  if (nodes_[static_cast<std::size_t>(initiator_node)]->locks().CancelWait(
          initiator)) {
    ++global_deadlocks_;
  }
}

sim::Process GlobalDeadlockDetector::WatchdogAt(int site) {
  const sim::SitePort port{&kernel_, site};
  lock::LockManager& lm = nodes_[static_cast<std::size_t>(site)]->locks();
  for (;;) {
    co_await sim::Delay{port, options_.reprobe_interval_ms};
    // Re-launch probes for every transaction still blocked at this site;
    // stale probes die harmlessly, persistent global cycles are found.
    // WaitingTxns() is sorted, so the sweep order is deterministic.
    for (const GlobalTxnId waiter : lm.WaitingTxns()) {
      if (!lm.IsWaiting(waiter)) continue;
      OnBlock(site, waiter, lm.WaitingFor(waiter));
    }
  }
}

void GlobalDeadlockDetector::StartWatchdogs() {
  for (int s = 0; s < kernel_.num_sites(); ++s) WatchdogAt(s);
}

void GlobalDeadlockDetector::ResetStats() {
  probes_sent_ = 0;
  global_deadlocks_ = 0;
}

}  // namespace carat::txn
