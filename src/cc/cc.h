// Concurrency-control backend vocabulary, shared by the testbed and the
// analytical model.
//
// The 1987 paper hard-wires one policy: two-phase locking with FIFO waits
// and probe-based global deadlock detection. This header names that policy
// and its alternatives so every layer — LockManager conflict handling,
// testbed transaction flow, the model's blocking/deadlock submodel, cache
// keys, workload specs, CLI flags, wire config — selects behaviour from one
// enum instead of assuming 2PL:
//
//   k2PL      blocked requests wait FIFO; local cycles + cross-site probes
//             find deadlocks and abort a victim (the paper's system).
//   kNoWait   restart-oriented: any lock conflict aborts the requester
//             immediately; the user retries after a randomized backoff.
//             No waiting means no deadlocks and no probes.
//   kWaitDie  restart-oriented: on conflict an older transaction (smaller
//             global id) waits, a younger one dies and retries after
//             backoff. Waits only ever point at older transactions, so the
//             wait-for graph is acyclic by construction — again no probes.
//   kQueue    queue-oriented (Calvin / Qadah style): a transaction's full
//             read/write set is known up front, and each participating node
//             enqueues the whole granule set in one deterministic globally
//             ordered acquisition at first arrival. The (node, granule)
//             resource order makes deadlock impossible; conflicts appear
//             only as queueing delay at the granule partitions.
//
// Every backend preserves the testbed's byte-determinism contract: results
// are a pure function of the input and seed.

#ifndef CARAT_CC_CC_H_
#define CARAT_CC_CC_H_

#include <array>
#include <string_view>

namespace carat::cc {

enum class BackendKind : int {
  k2PL = 0,
  kNoWait = 1,
  kWaitDie = 2,
  kQueue = 3,
};

inline constexpr int kNumBackends = 4;
inline constexpr std::array<BackendKind, kNumBackends> kAllBackends = {
    BackendKind::k2PL, BackendKind::kNoWait, BackendKind::kWaitDie,
    BackendKind::kQueue};

/// Stable lowercase names, used by CLI flags, scenario files, CSV headers
/// and the dist wire config.
constexpr std::string_view Name(BackendKind k) {
  switch (k) {
    case BackendKind::k2PL: return "2pl";
    case BackendKind::kNoWait: return "nowait";
    case BackendKind::kWaitDie: return "waitdie";
    case BackendKind::kQueue: return "queue";
  }
  return "?";
}

/// Parses a backend name; false (and untouched output) on unknown names.
constexpr bool ParseBackend(std::string_view name, BackendKind* out) {
  for (BackendKind k : kAllBackends) {
    if (name == Name(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

/// True for the backends that resolve conflicts by aborting + restarting
/// (the requester backs off before resubmitting).
constexpr bool IsRestartOriented(BackendKind k) {
  return k == BackendKind::kNoWait || k == BackendKind::kWaitDie;
}

/// True for the backends whose wait graph cannot form cycles — they never
/// wire deadlock probes or watchdogs.
constexpr bool IsDeadlockFree(BackendKind k) { return k != BackendKind::k2PL; }

/// Mean of the uniform restart backoff the testbed inserts before a
/// restart-oriented backend resubmits an aborted transaction (the model's
/// paired submodels charge the same mean as their lock-wait delay). Uniform
/// on [0.5, 1.5) * mean, drawn from the user's own RNG stream, so runs stay
/// deterministic.
inline constexpr double kRestartBackoffMeanMs = 10.0;

}  // namespace carat::cc

#endif  // CARAT_CC_CC_H_
