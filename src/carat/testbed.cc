#include "carat/testbed.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "cc/cc.h"
#include "lock/lock_manager_set.h"
#include "net/network.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "txn/node.h"
#include "txn/registry.h"
#include "util/random.h"
#include "util/stats.h"

namespace carat {

namespace {

using model::ClassParams;
using model::TxnType;
using txn::GlobalTxnId;
using txn::Node;
using txn::RequestSpec;

// One simulated user TR process and its measurement counters. Every field is
// only touched from home-site events (remote legs carry no accounting).
struct UserDriver {
  int home = 0;
  TxnType type = TxnType::kLRO;
  sim::SitePort port;  // home-site timeline
  util::Rng rng{0};
  // Round-robin cursor over the other nodes for remote requests. Persists
  // across submissions: restarting at 0 every plan sent every remote
  // request in the system to the lowest-numbered other nodes, invisible at
  // the paper's 2 nodes (there is only one) but badly skewed at 16.
  int remote_rr = 0;

  std::uint64_t commits = 0;
  std::uint64_t submissions = 0;
  std::uint64_t aborts = 0;
  util::StatAccumulator response_ms;
  // Per-commit-cycle synchronization times, mirroring the model's LW/RW/CW
  // delay-center demands.
  util::StatAccumulator lock_wait_ms;
  util::StatAccumulator remote_wait_ms;
  util::StatAccumulator commit_wait_ms;
  std::uint64_t records_committed = 0;

  void ResetStats() {
    commits = submissions = aborts = records_committed = 0;
    response_ms.Reset();
    lock_wait_ms.Reset();
    remote_wait_ms.Reset();
    commit_wait_ms.Reset();
  }
};

// Detached 2PC leg: run the task, then signal the join gate. The leg's last
// step is a home-site await, so the gate fires in home-site context.
sim::Process RunLeg(sim::Task<void> task, sim::Gate* gate) {
  co_await task;
  gate->Signal();
}

class Testbed {
 public:
  Testbed(const model::ModelInput& input, const TestbedOptions& options)
      : input_(input),
        options_(options),
        kernel_(static_cast<int>(input.sites.size())),
        network_(kernel_, input.comm_delay_ms),
        registry_(static_cast<int>(input.sites.size())),
        locks_(kernel_),
        root_rng_(options.seed) {
    locks_.set_victim_policy(options.victim_policy);
    switch (input.cc_backend) {
      case cc::BackendKind::kNoWait:
        locks_.set_conflict_policy(lock::ConflictPolicy::kAbortRequester);
        break;
      case cc::BackendKind::kWaitDie:
        locks_.set_conflict_policy(lock::ConflictPolicy::kWaitDie);
        break;
      case cc::BackendKind::k2PL:
      case cc::BackendKind::kQueue:
        break;  // ConflictPolicy::kWait: FIFO queues, the 2PL default
    }
    for (std::size_t i = 0; i < input.sites.size(); ++i) {
      const int index = static_cast<int>(i);
      nodes_.push_back(std::make_unique<Node>(sim::SitePort{&kernel_, index},
                                              index, input.sites[i],
                                              &locks_.at(index)));
    }
    // Committed-update audit counters, sliced by the crediting coordinator's
    // home site so CreditCommit stays a home-site write.
    shadow_.resize(nodes_.size());
    for (auto& slice : shadow_) {
      for (const auto& node : nodes_) {
        slice.emplace_back(node->database().num_records(), 0);
      }
    }
    std::vector<Node*> node_ptrs;
    for (auto& n : nodes_) node_ptrs.push_back(n.get());
    detector_ = std::make_unique<txn::GlobalDeadlockDetector>(
        kernel_, network_, registry_, node_ptrs, options.probe_options);

    // Only 2PL can form wait-for cycles; the other backends are deadlock-free
    // by construction, so their waits never feed the global probe machinery.
    if (input.cc_backend == cc::BackendKind::k2PL) {
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const int index = static_cast<int>(i);
        locks_.at(index).on_block =
            [this, index](GlobalTxnId waiter,
                          const std::vector<GlobalTxnId>& holders) {
              detector_->OnBlock(index, waiter, holders);
            };
      }
    }
  }

  TestbedResult Run() {
    SpawnUsers();
    if (input_.cc_backend == cc::BackendKind::k2PL) {
      detector_->StartWatchdogs();
    }
    kernel_.RunUntil(options_.warmup_ms);
    ResetStats();
    kernel_.RunUntil(options_.warmup_ms + options_.measure_ms);
    return Collect();
  }

 private:
  // ---- workload -----------------------------------------------------------

  void SpawnUsers() {
    for (std::size_t i = 0; i < input_.sites.size(); ++i) {
      const model::SiteParams& site = input_.sites[i];
      for (TxnType t : {TxnType::kLRO, TxnType::kLU, TxnType::kDROC,
                        TxnType::kDUC}) {
        for (int u = 0; u < site.Class(t).population; ++u) {
          auto driver = std::make_unique<UserDriver>();
          driver->home = static_cast<int>(i);
          driver->type = t;
          driver->port = sim::SitePort{&kernel_, driver->home};
          driver->rng = root_rng_.Fork();
          UserProcess(driver.get());
          drivers_.push_back(std::move(driver));
        }
      }
    }
  }

  // Cost parameters governing execution of `u`'s requests at `node`: the
  // user's own class at home, the matching slave class elsewhere.
  const ClassParams& ExecCosts(const UserDriver& u, int node) const {
    if (node == u.home) return input_.sites[node].Class(u.type);
    return input_.sites[node].Class(model::SlaveOf(u.type));
  }

  // The sequence of requests for one submission: l local and r remote
  // requests, interleaved, each reading (or updating) fresh uniform random
  // records at its executing node. Runs in home-site context; PickRecords
  // only reads the remote node's immutable sizing parameters.
  std::vector<RequestSpec> BuildPlan(UserDriver* u) {
    const ClassParams& costs = input_.sites[u->home].Class(u->type);
    const bool update = model::IsUpdate(u->type);

    // Remote target nodes, round-robin over the other nodes.
    std::vector<int> remote_nodes;
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (static_cast<int>(j) != u->home) remote_nodes.push_back(j);
    }

    std::vector<RequestSpec> plan;
    int local_left = costs.local_requests;
    int remote_left = costs.remote_requests;

    while (local_left > 0 || remote_left > 0) {
      RequestSpec req;
      if (local_left >= remote_left) {
        req.node = u->home;
        --local_left;
      } else {
        req.node = remote_nodes[static_cast<std::size_t>(u->remote_rr++) %
                                remote_nodes.size()];
        --remote_left;
      }
      req.update = update;
      req.records = nodes_[req.node]->PickRecords(costs.records_per_request,
                                                  &u->rng);
      plan.push_back(std::move(req));
    }
    return plan;
  }

  // ---- transaction lifecycle ----------------------------------------------

  sim::Process UserProcess(UserDriver* u) {
    const double think = input_.sites[u->home].think_time_ms;
    const int records_per_commit =
        input_.sites[u->home].Class(u->type).records_accessed();
    for (;;) {
      const double cycle_start = u->port.now();
      bool committed = false;
      Node::PhaseAccounting acct;  // accumulated across retries
      while (!committed) {
        if (think > 0) co_await sim::Delay{u->port, think};
        ++u->submissions;
        committed = co_await RunOnce(u, &acct);
        if (!committed) {
          ++u->aborts;
          if (cc::IsRestartOriented(input_.cc_backend)) {
            // Restart backoff, uniform in [0.5, 1.5) x the mean, drawn from
            // this user's own stream so nobody else's record picks shift.
            // Credited as lock wait: it is the restart backends' substitute
            // for queueing at the lock.
            const double backoff =
                input_.restart_backoff_ms * (0.5 + u->rng.NextDouble());
            acct.lock_wait_ms += backoff;
            co_await sim::Delay{u->port, backoff};
          }
        }
      }
      ++u->commits;
      u->records_committed += records_per_commit;
      u->response_ms.Add(u->port.now() - cycle_start);
      u->lock_wait_ms.Add(acct.lock_wait_ms);
      u->remote_wait_ms.Add(acct.remote_wait_ms);
      u->commit_wait_ms.Add(acct.commit_wait_ms);
    }
  }

  // One execution attempt; true on commit, false if aborted by deadlock.
  // The coroutine changes site only through network hops; everything touched
  // between hops belongs to the site it is currently at.
  sim::Task<bool> RunOnce(UserDriver* u, Node::PhaseAccounting* acct) {
    Node& home = *nodes_[u->home];
    const ClassParams& costs = input_.sites[u->home].Class(u->type);
    txn::SiteRegistry& reg = registry_.at(u->home);
    const GlobalTxnId gid = reg.NewTxn(u->type);

    std::vector<bool> touched(nodes_.size(), false);
    touched[u->home] = true;
    // A DM server is allocated to the transaction for its lifetime at each
    // node it touches (CARAT's fixed startup pool).
    if (home.dm_pool() != nullptr) co_await home.dm_pool()->Acquire();
    home.locks().StartTxn(gid, home.simulation().now());

    std::vector<RequestSpec> plan = BuildPlan(u);

    // Queue-oriented backend: run the plan in ascending node order and take
    // all granule locks a node needs, ascending, on first arrival there.
    // Every transaction then acquires along the same global (node, granule)
    // order, so no wait-for cycle can ever form and no abort ever happens.
    const bool queued = input_.cc_backend == cc::BackendKind::kQueue;
    std::vector<std::vector<db::GranuleId>> upfront;
    std::vector<bool> upfront_done;
    if (queued) {
      std::stable_sort(plan.begin(), plan.end(),
                       [](const RequestSpec& a, const RequestSpec& b) {
                         return a.node < b.node;
                       });
      upfront.resize(nodes_.size());
      upfront_done.assign(nodes_.size(), false);
      for (const RequestSpec& req : plan) {
        const auto n = static_cast<std::size_t>(req.node);
        for (const db::RecordId r : req.records) {
          upfront[n].push_back(nodes_[n]->database().GranuleOf(r));
        }
      }
      for (auto& granules : upfront) {
        std::sort(granules.begin(), granules.end());
        granules.erase(std::unique(granules.begin(), granules.end()),
                       granules.end());
      }
    }

    // INIT phase: TBEGIN and DBOPEN handling by the home TM plus DM-server
    // allocation. (Remote DM allocation folds into the first REMDO, like the
    // testbed's lazy slave assignment.)
    co_await home.TmHandle(costs.tm_cpu_ms);
    co_await home.TmHandle(costs.tm_cpu_ms);
    co_await home.UseCpu(costs.dm_cpu_ms);

    bool aborted = false;
    int victim_node = -1;
    for (const RequestSpec& req : plan) {
      Node& exec = *nodes_[req.node];
      const ClassParams& exec_costs = ExecCosts(*u, req.node);

      // U phase: the user process prepares the request.
      co_await home.UseCpu(costs.u_cpu_ms);
      // Home TM routes the TDO.
      co_await home.TmHandle(costs.tm_cpu_ms);

      bool ok = true;
      if (req.node == u->home) {
        if (queued && !upfront_done[static_cast<std::size_t>(req.node)]) {
          upfront_done[static_cast<std::size_t>(req.node)] = true;
          ok = co_await exec.AcquireGranules(
              gid, upfront[static_cast<std::size_t>(req.node)], req.update,
              acct);
        }
        if (ok) {
          ok = co_await exec.ExecuteRequest(gid, exec_costs, req, acct,
                                            /*acquire_locks=*/!queued);
        }
        co_await home.TmHandle(costs.tm_cpu_ms);  // DOSTEP_K routing
      } else {
        // RW span: from shipping the REMDO until its response is back home.
        // Like the model's Eq. 21, the slave's lock waits stay *inside* the
        // coordinator's remote wait (so the slave exec gets no accounting;
        // the driver's LW covers home-site waits only).
        const double rw_start = u->port.now();
        reg.SetCurrentNode(gid, req.node);  // probe routing: txn moves there
        co_await network_.Hop(req.node);               // REMDO
        if (!touched[req.node]) {
          // First touch: lazy slave DM assignment, at the slave itself.
          touched[req.node] = true;
          if (exec.dm_pool() != nullptr) co_await exec.dm_pool()->Acquire();
          exec.locks().StartTxn(gid, exec.simulation().now());
        }
        co_await exec.TmHandle(exec_costs.tm_cpu_ms);  // slave TM, inbound
        if (queued && !upfront_done[static_cast<std::size_t>(req.node)]) {
          upfront_done[static_cast<std::size_t>(req.node)] = true;
          // The slave's upfront waits stay inside the coordinator's remote
          // wait, like Eq. 21 treats slave lock waits.
          ok = co_await exec.AcquireGranules(
              gid, upfront[static_cast<std::size_t>(req.node)], req.update,
              nullptr);
        }
        if (ok) {
          ok = co_await exec.ExecuteRequest(gid, exec_costs, req, nullptr,
                                            /*acquire_locks=*/!queued);
        }
        if (!ok) {
          // Deadlock victim at the slave: its DM rolls back and vacates the
          // node before the failure response ships home (T_ABORT, local
          // part). The coordinator then aborts the surviving nodes.
          co_await exec.RollbackAt(gid, exec_costs);
          exec.locks().EndTxn(gid);
          if (exec.dm_pool() != nullptr) exec.dm_pool()->Release();
          touched[req.node] = false;
        }
        co_await exec.TmHandle(exec_costs.tm_cpu_ms);  // slave TM, REMDO_K
        co_await network_.Hop(u->home);                // response
        reg.SetCurrentNode(gid, u->home);
        if (acct != nullptr) acct->remote_wait_ms += u->port.now() - rw_start;
        co_await home.TmHandle(costs.tm_cpu_ms);       // home TM, REMDO_K
      }
      if (!ok) {
        aborted = true;
        victim_node = req.node;
        break;
      }
    }

    if (aborted) {
      co_await GlobalAbort(u, gid, victim_node, touched);
    } else {
      co_await home.TmHandle(costs.tm_cpu_ms);  // TEND
      co_await Commit(u, gid, touched, plan, acct);
    }

    // Slaves were vacated inside their commit/abort legs; only the home
    // residue remains.
    home.locks().EndTxn(gid);
    if (home.dm_pool() != nullptr) home.dm_pool()->Release();
    reg.EndTxn(gid);
    co_return !aborted;
  }

  // Rollback everywhere after `gid` was chosen as a deadlock victim at
  // `victim_node` (T_ABORT message flow). A remote victim node already
  // rolled back inside its request leg; the home site and the surviving
  // slaves are handled here, from home-site context.
  sim::Task<void> GlobalAbort(UserDriver* u, GlobalTxnId gid, int victim_node,
                              const std::vector<bool>& touched) {
    const ClassParams& costs = input_.sites[u->home].Class(u->type);
    // The victim site rolls back first (its DM got the abort outcome).
    if (victim_node == u->home) {
      co_await nodes_[u->home]->RollbackAt(gid, costs);
    }
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      const int node = static_cast<int>(j);
      if (!touched[j] || node == victim_node) continue;
      if (node == u->home) {
        co_await nodes_[j]->RollbackAt(gid, costs);
        continue;
      }
      co_await AbortLeg(u, gid, node);
    }
  }

  // T_ABORT to one surviving slave: roll back there, vacate the node, and
  // acknowledge home (ABORT_K).
  sim::Task<void> AbortLeg(UserDriver* u, GlobalTxnId gid, int j) {
    Node& slave = *nodes_[j];
    const ClassParams& scosts = ExecCosts(*u, j);
    const ClassParams& hcosts = input_.sites[u->home].Class(u->type);
    co_await network_.Hop(j);  // T_ABORT
    co_await slave.TmHandle(scosts.tm_cpu_ms);
    co_await slave.RollbackAt(gid, scosts);
    slave.locks().EndTxn(gid);
    if (slave.dm_pool() != nullptr) slave.dm_pool()->Release();
    co_await network_.Hop(u->home);  // ABORT_K
    co_await nodes_[u->home]->TmHandle(hcosts.tm_cpu_ms);
  }

  // Credits committed updates to the audit counters. Must run exactly when
  // the coordinator's commit record is logged (the 2PC decision point): the
  // end-of-run audit treats the coordinator's commit record as the global
  // truth for in-doubt participants. Writes only this coordinator's
  // home-site shadow slice.
  void CreditCommit(const UserDriver& u, const std::vector<RequestSpec>& plan) {
    if (!model::IsUpdate(u.type)) return;
    for (const RequestSpec& req : plan) {
      for (const db::RecordId r : req.records) ++shadow_[u.home][req.node][r];
    }
  }

  // Commit: direct for local transactions, centralized 2PC for distributed.
  sim::Task<void> Commit(UserDriver* u, GlobalTxnId gid,
                         const std::vector<bool>& touched,
                         const std::vector<RequestSpec>& plan,
                         Node::PhaseAccounting* acct = nullptr) {
    Node& home = *nodes_[u->home];
    const ClassParams& costs = input_.sites[u->home].Class(u->type);

    std::vector<int> slaves;
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (touched[j] && static_cast<int>(j) != u->home) slaves.push_back(j);
    }

    if (slaves.empty()) {
      // TC + TCIO: commit processing and the forced commit log record.
      co_await home.UseCpu(costs.tc_cpu_ms);
      home.log().LogCommit(gid);
      CreditCommit(*u, plan);
      co_await home.LogIo(1);
      co_await home.ReleaseLocksAt(gid, costs);
      home.log().Forget(gid);
      co_return;
    }

    // --- phase 1: PREPARE (parallel legs) -----------------------------------
    const double prepare_start = u->port.now();
    sim::Gate prepared(static_cast<int>(slaves.size()));
    for (const int j : slaves) {
      RunLeg(PrepareLeg(u, gid, j), &prepared);
    }
    co_await prepared.Wait();
    if (acct != nullptr) acct->commit_wait_ms += u->port.now() - prepare_start;

    // Decision: force-write the commit record at the coordinator.
    co_await home.UseCpu(costs.tc_cpu_ms);
    home.log().LogCommit(gid);
    CreditCommit(*u, plan);
    co_await home.LogIo(1);

    // --- phase 2: COMMIT (parallel legs) ------------------------------------
    const double commit_start = u->port.now();
    sim::Gate committed(static_cast<int>(slaves.size()));
    for (const int j : slaves) {
      RunLeg(CommitLeg(u, gid, j), &committed);
    }
    co_await committed.Wait();
    if (acct != nullptr) acct->commit_wait_ms += u->port.now() - commit_start;

    co_await home.ReleaseLocksAt(gid, costs);
    home.log().Forget(gid);
  }

  sim::Task<void> PrepareLeg(UserDriver* u, GlobalTxnId gid, int j) {
    Node& slave = *nodes_[j];
    Node& home = *nodes_[u->home];
    const ClassParams& scosts = ExecCosts(*u, j);
    const ClassParams& hcosts = input_.sites[u->home].Class(u->type);
    co_await network_.Hop(j);               // PREPARE
    co_await slave.TmHandle(scosts.tm_cpu_ms);
    slave.log().LogPrepare(gid);
    co_await slave.LogIo(1);                // forced prepare record
    co_await network_.Hop(u->home);         // YES vote
    co_await home.TmHandle(hcosts.tm_cpu_ms);
  }

  sim::Task<void> CommitLeg(UserDriver* u, GlobalTxnId gid, int j) {
    Node& slave = *nodes_[j];
    Node& home = *nodes_[u->home];
    const ClassParams& scosts = ExecCosts(*u, j);
    const ClassParams& hcosts = input_.sites[u->home].Class(u->type);
    co_await network_.Hop(j);               // COMMIT
    co_await slave.TmHandle(scosts.tm_cpu_ms);
    slave.log().LogCommit(gid);
    co_await slave.LogIo(1);                // commit record
    co_await slave.ReleaseLocksAt(gid, scosts);
    slave.log().Forget(gid);
    slave.locks().EndTxn(gid);  // the slave's part of the txn is over
    if (slave.dm_pool() != nullptr) slave.dm_pool()->Release();
    co_await network_.Hop(u->home);         // COMMIT_K
    co_await home.TmHandle(hcosts.tm_cpu_ms);
  }

  // ---- measurement ---------------------------------------------------------

  void ResetStats() {
    for (auto& node : nodes_) node->ResetStats();
    for (auto& driver : drivers_) driver->ResetStats();
    network_.ResetStats();
    detector_->ResetStats();
    events_at_reset_ = kernel_.events_executed();
  }

  bool AuditDatabase() const {
    // Global commit truth: a transaction is committed iff some node (in
    // practice its coordinator) holds its commit record - the answer a real
    // 2PC recovery would get for an in-doubt prepared transaction.
    const auto committed_anywhere = [this](wal::TxnId t) {
      for (const auto& node : nodes_) {
        if (node->log().IsCommitted(t)) return true;
      }
      return false;
    };
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      // Undo in-flight transactions on a copy, then compare with the audit
      // counters: exactly the committed increments must remain. The audit
      // count for a record sums every coordinator's home-site slice.
      db::Database copy = nodes_[i]->database();
      nodes_[i]->log().Recover(&copy, committed_anywhere);
      for (db::RecordId r = 0; r < copy.num_records(); ++r) {
        std::uint64_t expected = 0;
        for (std::size_t h = 0; h < shadow_.size(); ++h) {
          expected += shadow_[h][i][r];
        }
        if (copy.Read(r) != static_cast<db::RecordValue>(expected)) {
          return false;
        }
      }
    }
    return true;
  }

  TestbedResult Collect() {
    TestbedResult result;
    result.ok = true;
    result.measured_ms = options_.measure_ms;
    result.events = kernel_.events_executed() - events_at_reset_;
    result.network_messages = network_.messages();
    result.global_deadlocks = detector_->global_deadlocks();
    result.probes_sent = detector_->probes_sent();
    result.database_consistent = AuditDatabase();

    const double window_s = options_.measure_ms / 1000.0;
    result.nodes.resize(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      Node& node = *nodes_[i];
      NodeResult& nr = result.nodes[i];
      nr.name = node.params().name;
      nr.cpu_utilization = node.cpu().BusyMs() / options_.measure_ms;
      nr.db_disk_utilization = node.db_disk().BusyMs() / options_.measure_ms;
      std::uint64_t ios = node.db_disk().completions();
      if (node.has_separate_log_disk()) {
        nr.log_disk_utilization =
            node.log_disk().BusyMs() / options_.measure_ms;
        ios += node.log_disk().completions();
      }
      nr.dio_per_s = static_cast<double>(ios) / window_s;
      nr.lock_requests = node.locks().requests();
      nr.lock_blocks = node.locks().blocks();
      nr.local_deadlocks = node.locks().local_deadlocks();
      nr.buffer_hit_ratio =
          node.buffer() != nullptr ? node.buffer()->HitRatio() : 0.0;
      nr.dm_pool_waits =
          node.dm_pool() != nullptr ? node.dm_pool()->waits() : 0;
    }

    for (const auto& driver : drivers_) {
      NodeResult& nr = result.nodes[driver->home];
      TypeResult& tr = nr.types[Index(driver->type)];
      tr.present = true;
      tr.commits += driver->commits;
      tr.submissions += driver->submissions;
      tr.aborts += driver->aborts;
      // Aggregate per-cycle times as commit-weighted means.
      tr.response_ms += driver->response_ms.Mean() * driver->commits;
      tr.lock_wait_ms += driver->lock_wait_ms.Mean() * driver->commits;
      tr.remote_wait_ms += driver->remote_wait_ms.Mean() * driver->commits;
      tr.commit_wait_ms += driver->commit_wait_ms.Mean() * driver->commits;
      nr.records_per_s += driver->records_committed / window_s;
    }
    for (NodeResult& nr : result.nodes) {
      for (TypeResult& tr : nr.types) {
        if (!tr.present) continue;
        tr.throughput_per_s = tr.commits / window_s;
        tr.abort_prob = tr.submissions > 0
                            ? static_cast<double>(tr.aborts) / tr.submissions
                            : 0.0;
        if (tr.commits > 0) {
          tr.response_ms /= tr.commits;
          tr.lock_wait_ms /= tr.commits;
          tr.remote_wait_ms /= tr.commits;
          tr.commit_wait_ms /= tr.commits;
        } else {
          tr.response_ms = tr.lock_wait_ms = tr.remote_wait_ms =
              tr.commit_wait_ms = 0.0;
        }
        nr.txn_per_s += tr.throughput_per_s;
      }
    }
    return result;
  }

  const model::ModelInput& input_;
  TestbedOptions options_;
  sim::Kernel kernel_;
  net::Network network_;
  txn::TxnRegistrySet registry_;
  lock::LockManagerSet locks_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Committed update counts: [coordinator home][node][record].
  std::vector<std::vector<std::vector<std::uint32_t>>> shadow_;
  std::unique_ptr<txn::GlobalDeadlockDetector> detector_;
  std::vector<std::unique_ptr<UserDriver>> drivers_;
  util::Rng root_rng_;
  std::uint64_t events_at_reset_ = 0;
};

void AppendHexU64(std::string* out, std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  *out += buf;
  *out += ' ';
}

void AppendBitsF64(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendHexU64(out, bits);
}

}  // namespace

double TestbedResult::TotalTxnPerSec() const {
  double total = 0.0;
  for (const NodeResult& n : nodes) total += n.txn_per_s;
  return total;
}

double TestbedResult::TotalRecordsPerSec() const {
  double total = 0.0;
  for (const NodeResult& n : nodes) total += n.records_per_s;
  return total;
}

std::string TestbedResultFingerprint(const TestbedResult& result) {
  std::string out;
  out += result.ok ? "ok " : "fail ";
  out += result.error;
  out += '\n';
  AppendBitsF64(&out, result.measured_ms);
  AppendHexU64(&out, result.events);
  AppendHexU64(&out, result.network_messages);
  AppendHexU64(&out, result.global_deadlocks);
  AppendHexU64(&out, result.probes_sent);
  out += result.database_consistent ? "consistent" : "INCONSISTENT";
  out += '\n';
  for (const NodeResult& nr : result.nodes) {
    out += nr.name;
    out += ' ';
    AppendBitsF64(&out, nr.cpu_utilization);
    AppendBitsF64(&out, nr.db_disk_utilization);
    AppendBitsF64(&out, nr.log_disk_utilization);
    AppendBitsF64(&out, nr.dio_per_s);
    AppendBitsF64(&out, nr.txn_per_s);
    AppendBitsF64(&out, nr.records_per_s);
    AppendHexU64(&out, nr.lock_requests);
    AppendHexU64(&out, nr.lock_blocks);
    AppendHexU64(&out, nr.local_deadlocks);
    AppendBitsF64(&out, nr.buffer_hit_ratio);
    AppendHexU64(&out, nr.dm_pool_waits);
    for (const TypeResult& tr : nr.types) {
      out += tr.present ? "+" : "-";
      AppendHexU64(&out, tr.commits);
      AppendHexU64(&out, tr.submissions);
      AppendHexU64(&out, tr.aborts);
      AppendBitsF64(&out, tr.throughput_per_s);
      AppendBitsF64(&out, tr.abort_prob);
      AppendBitsF64(&out, tr.response_ms);
      AppendBitsF64(&out, tr.lock_wait_ms);
      AppendBitsF64(&out, tr.remote_wait_ms);
      AppendBitsF64(&out, tr.commit_wait_ms);
    }
    out += '\n';
  }
  return out;
}

TestbedResult RunTestbed(const model::ModelInput& input,
                         const TestbedOptions& options) {
  TestbedResult failure;
  if (!input.Validate(&failure.error)) return failure;
  Testbed testbed(input, options);
  return testbed.Run();
}

}  // namespace carat
