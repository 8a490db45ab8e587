// Global deadlock detection by edge-chasing probes, after Chandy-Misra-Haas
// (the variation used by the CARAT testbed).
//
// When a lock request blocks, the local detector first searches the local
// wait-for graph (lock/lock_manager.h). Probes are then launched along the
// cross-site wait chain. Every piece of state a probe consults is
// site-local, so a probe is a *journey*: it routes to the
// target's home TM (which knows where the target currently operates), hops
// on to that node, and evaluates the wait state there; if the chain closes
// back on the initiator, a global deadlock exists and the initiator is
// aborted (its lock wait is cancelled, and its driver rolls the transaction
// back everywhere).
//
// Probes are simulated messages: every inter-node hop pays the network
// delay, and the TM that relays or evaluates a probe pays a small CPU cost.
// Per-site watchdogs re-probe long-blocked transactions so that detection
// cannot be lost to in-flight races (probes that raced with wait-graph
// changes).

#ifndef CARAT_TXN_PROBES_H_
#define CARAT_TXN_PROBES_H_

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "txn/node.h"
#include "txn/registry.h"

namespace carat::txn {

class GlobalDeadlockDetector {
 public:
  struct Options {
    /// CPU charged at each node that relays or evaluates a probe.
    double probe_cpu_ms = 1.0;
    /// Watchdog period for re-probing long-blocked transactions. The
    /// on-block probes catch cycles as their closing edge forms; the
    /// watchdog only covers probe/edge races, so it can be lazy.
    double reprobe_interval_ms = 200.0;
    /// Hop budget per probe chain (bounds runaway chains; cycles in real
    /// workloads are short — the paper restricts its *model* to 2-cycles).
    int max_hops = 16;
  };

  GlobalDeadlockDetector(sim::Kernel& kernel, net::Network& network,
                         TxnRegistrySet& registry, std::vector<Node*> nodes,
                         const Options& options);

  /// Hook for LockManager::on_block at node `node_index`: the waiter just
  /// blocked behind `holders`. Launches a probe journey per holder, except
  /// for holders provably running at this very node (their probe would die
  /// on arrival, so the message is never sent — this is what keeps purely
  /// local workloads probe-free).
  void OnBlock(int node_index, GlobalTxnId waiter,
               const std::vector<GlobalTxnId>& holders);

  /// Starts one re-probe watchdog per site (call once after wiring up the
  /// nodes). Each watchdog lives on its own site's timeline and sweeps that
  /// site's lock manager only.
  void StartWatchdogs();

  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t global_deadlocks() const { return global_deadlocks_; }
  void ResetStats();

 private:

  // One probe for (initiator, target) carrying the chain's running max id:
  // when a cycle closes, only the probe whose initiator *is* that maximum
  // declares the deadlock, so concurrent probes around one cycle kill
  // exactly one victim (the standard uniqueness convention for edge-chasing
  // detectors). The journey starts at `at_node`, routes via the target's
  // home, and evaluates where the target currently operates.
  sim::Process ProbeJourney(GlobalTxnId initiator, int initiator_node,
                            GlobalTxnId target, int at_node, int hops,
                            GlobalTxnId max_id);
  // Aborts the initiator by cancelling its lock wait (if still blocked) at
  // the node where it blocked.
  sim::Process DeliverVictimAbort(GlobalTxnId initiator, int initiator_node,
                                  int from_node);
  sim::Process WatchdogAt(int site);

  sim::Kernel& kernel_;
  net::Network& network_;
  TxnRegistrySet& registry_;
  std::vector<Node*> nodes_;
  Options options_;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t global_deadlocks_ = 0;
};

}  // namespace carat::txn

#endif  // CARAT_TXN_PROBES_H_
