#include "txn/node.h"

#include "util/random.h"

namespace carat::txn {

Node::Node(sim::SitePort sim, int index, const model::SiteParams& params,
           lock::LockManager* locks)
    : sim_(sim),
      index_(index),
      params_(params),
      cpu_(sim, params.name + "/cpu"),
      db_disk_(sim, params.name + "/db-disk"),
      log_disk_(params.separate_log_disk
                    ? std::make_unique<sim::FcfsResource>(sim, params.name +
                                                                   "/log-disk")
                    : nullptr),
      database_(params.num_granules, params.records_per_granule),
      buffer_(params.buffer_blocks > 0
                  ? std::make_unique<db::BufferPool>(params.buffer_blocks)
                  : nullptr),
      dm_pool_(params.dm_pool_size > 0
                   ? std::make_unique<sim::CountingSemaphore>(
                         sim, params.dm_pool_size)
                   : nullptr),
      owned_locks_(locks == nullptr
                       ? std::make_unique<lock::LockManager>(
                             lock::AcquireAwaiter::Resume)
                       : nullptr),
      locks_(locks == nullptr ? owned_locks_.get() : locks),
      tm_mutex_(sim) {}

sim::Task<void> Node::TmHandle(double cpu_ms) {
  co_await tm_mutex_.Lock();
  co_await cpu_.Use(cpu_ms);
  tm_mutex_.Unlock();
}

sim::Task<void> Node::UseCpu(double cpu_ms) { co_await cpu_.Use(cpu_ms); }

sim::Task<void> Node::DbIo(int blocks) {
  for (int i = 0; i < blocks; ++i) co_await db_disk_.Use(params_.block_io_ms);
}

sim::Task<void> Node::LogIo(int blocks) {
  sim::FcfsResource& disk = log_disk();
  for (int i = 0; i < blocks; ++i) co_await disk.Use(params_.block_io_ms);
}

sim::Task<bool> Node::ExecuteRequest(GlobalTxnId gid,
                                     const model::ClassParams& costs,
                                     const RequestSpec& request,
                                     PhaseAccounting* acct,
                                     bool acquire_locks) {
  // DM phase: processing before the first lock request.
  co_await cpu_.Use(costs.dm_cpu_ms);

  const lock::LockMode mode =
      request.update ? lock::LockMode::kExclusive : lock::LockMode::kShared;

  for (const db::RecordId record : request.records) {
    const db::GranuleId granule = database_.GranuleOf(record);

    // LR phase: lock request processing, including local deadlock detection.
    co_await cpu_.Use(costs.lr_cpu_ms);
    if (acquire_locks) {
      const double before_lock = sim_.now();
      const lock::LockOutcome outcome =
          co_await lock::AcquireAwaiter{*locks_, sim_, gid, granule, mode};
      if (acct != nullptr) acct->lock_wait_ms += sim_.now() - before_lock;
      if (outcome == lock::LockOutcome::kAborted) {
        co_return false;  // deadlock victim; caller rolls back everywhere
      }
    }

    // DMIO phase. Without a buffer (the paper's configuration) every granule
    // access is a physical block read; an update additionally journals the
    // before image and writes the block back (three I/Os total, Table 2).
    // With the buffer extension, resident blocks skip the read I/O.
    co_await cpu_.Use(costs.dmio_cpu_ms);
    const bool hit = buffer_ != nullptr && buffer_->Touch(granule);
    if (!hit) co_await DbIo(1);  // read the block
    if (request.update) {
      log_.LogBeforeImage(gid, granule, database_.ReadGranule(granule));
      co_await LogIo(1);  // journal write (write-ahead of the update)
      database_.Write(record, database_.Read(record) + 1);
      co_await DbIo(1);  // in-place database write
    }

    // DM phase between lock requests.
    co_await cpu_.Use(costs.dm_cpu_ms);
  }
  co_return true;
}

sim::Task<bool> Node::AcquireGranules(GlobalTxnId gid,
                                      const std::vector<db::GranuleId>& granules,
                                      bool update,
                                      PhaseAccounting* acct) {
  const lock::LockMode mode =
      update ? lock::LockMode::kExclusive : lock::LockMode::kShared;
  for (const db::GranuleId granule : granules) {
    const double before_lock = sim_.now();
    const lock::LockOutcome outcome =
        co_await lock::AcquireAwaiter{*locks_, sim_, gid, granule, mode};
    if (acct != nullptr) acct->lock_wait_ms += sim_.now() - before_lock;
    if (outcome == lock::LockOutcome::kAborted) co_return false;
  }
  co_return true;
}

sim::Task<void> Node::RollbackAt(GlobalTxnId gid,
                                 const model::ClassParams& costs) {
  // TA phase: abort handling.
  co_await cpu_.Use(costs.ta_fixed_cpu_ms);
  const int restored = log_.Rollback(gid, &database_);
  // TAIO phase: per restored granule, read the journal and rewrite the
  // database block.
  for (int i = 0; i < restored; ++i) {
    co_await cpu_.Use(costs.ta_cpu_per_granule_ms);
    co_await LogIo(1);
    co_await DbIo(1);
  }
  co_await ReleaseLocksAt(gid, costs);
}

sim::Task<void> Node::ReleaseLocksAt(GlobalTxnId gid,
                                     const model::ClassParams& costs) {
  // UL phase: unlock processing proportional to the locks held here.
  const double locks_held = static_cast<double>(locks_->HeldCount(gid));
  if (locks_held > 0) {
    co_await cpu_.Use(costs.unlock_cpu_per_lock_ms * locks_held);
  }
  locks_->ReleaseAll(gid);
}

std::vector<db::RecordId> Node::PickRecords(int count, util::Rng* rng) const {
  std::vector<db::RecordId> records(count);
  const std::uint64_t total = static_cast<std::uint64_t>(database_.num_records());
  const bool skewed = params_.hot_data_fraction > 0.0 &&
                      params_.hot_data_fraction < 1.0 &&
                      params_.hot_access_fraction > 0.0;
  if (!skewed) {
    for (int i = 0; i < count; ++i) {
      records[i] = static_cast<db::RecordId>(rng->NextBounded(total));
    }
    return records;
  }
  // Hot/cold skew: hot_access_fraction of the accesses land uniformly in
  // the first hot_data_fraction of the records.
  const std::uint64_t hot =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     params_.hot_data_fraction * total));
  for (int i = 0; i < count; ++i) {
    if (rng->NextDouble() < params_.hot_access_fraction) {
      records[i] = static_cast<db::RecordId>(rng->NextBounded(hot));
    } else {
      records[i] =
          static_cast<db::RecordId>(hot + rng->NextBounded(total - hot));
    }
  }
  return records;
}

void Node::ResetStats() {
  cpu_.ResetStats();
  db_disk_.ResetStats();
  if (log_disk_) log_disk_->ResetStats();
  locks_->ResetStats();
  if (buffer_) buffer_->ResetStats();
  if (dm_pool_) dm_pool_->ResetStats();
}

}  // namespace carat::txn
