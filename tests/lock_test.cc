#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lock/lock_manager.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace carat::lock {
namespace {

struct Outcome {
  bool resumed = false;
  LockOutcome result = LockOutcome::kGranted;
};

class LockTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  LockManager lm_{AcquireAwaiter::Resume};

  sim::Process AcquireOne(LockManager& lm, TxnId txn, db::GranuleId g,
                          LockMode mode, Outcome* out) {
    out->result = co_await AcquireAwaiter{lm, sim_, txn, g, mode};
    out->resumed = true;
  }

  void Start(TxnId t) { lm_.StartTxn(t, sim_.now()); }
  void Drain() { sim_.RunUntil(sim_.now() + 1.0); }
};

TEST_F(LockTest, SharedLocksCoexist) {
  Start(1);
  Start(2);
  Outcome a, b;
  AcquireOne(lm_, 1, 7, LockMode::kShared, &a);
  AcquireOne(lm_, 2, 7, LockMode::kShared, &b);
  Drain();
  EXPECT_TRUE(a.resumed);
  EXPECT_TRUE(b.resumed);
  EXPECT_EQ(a.result, LockOutcome::kGranted);
  EXPECT_EQ(b.result, LockOutcome::kGranted);
  EXPECT_EQ(lm_.TotalHeld(), 2u);
}

TEST_F(LockTest, ExclusiveBlocksShared) {
  Start(1);
  Start(2);
  Outcome a, b;
  AcquireOne(lm_, 1, 7, LockMode::kExclusive, &a);
  AcquireOne(lm_, 2, 7, LockMode::kShared, &b);
  Drain();
  EXPECT_TRUE(a.resumed);
  EXPECT_FALSE(b.resumed);
  EXPECT_TRUE(lm_.IsWaiting(2));
  // Release unblocks the waiter.
  lm_.ReleaseAll(1);
  Drain();
  EXPECT_TRUE(b.resumed);
  EXPECT_EQ(b.result, LockOutcome::kGranted);
}

TEST_F(LockTest, SharedBlocksExclusive) {
  Start(1);
  Start(2);
  Outcome a, b;
  AcquireOne(lm_, 1, 7, LockMode::kShared, &a);
  AcquireOne(lm_, 2, 7, LockMode::kExclusive, &b);
  Drain();
  EXPECT_TRUE(a.resumed);
  EXPECT_FALSE(b.resumed);
}

TEST_F(LockTest, ReentrantGrantsDoNotDoubleCount) {
  Start(1);
  Outcome a, b;
  AcquireOne(lm_, 1, 7, LockMode::kExclusive, &a);
  AcquireOne(lm_, 1, 7, LockMode::kShared, &b);  // weaker re-request
  Drain();
  EXPECT_TRUE(a.resumed);
  EXPECT_TRUE(b.resumed);
  EXPECT_EQ(lm_.HeldCount(1), 1u);
  EXPECT_EQ(lm_.TotalHeld(), 1u);
}

TEST_F(LockTest, UpgradeSucceedsWhenSoleHolder) {
  Start(1);
  Outcome a, b;
  AcquireOne(lm_, 1, 7, LockMode::kShared, &a);
  AcquireOne(lm_, 1, 7, LockMode::kExclusive, &b);
  Drain();
  EXPECT_TRUE(b.resumed);
  EXPECT_TRUE(lm_.Holds(1, 7, LockMode::kExclusive));
  EXPECT_EQ(lm_.HeldCount(1), 1u);
}

TEST_F(LockTest, FifoFairnessNewRequestsQueueBehindWaiters) {
  Start(1);
  Start(2);
  Start(3);
  Outcome a, b, c;
  AcquireOne(lm_, 1, 7, LockMode::kExclusive, &a);
  AcquireOne(lm_, 2, 7, LockMode::kExclusive, &b);
  // Txn 3 asks for shared: compatible with nobody while 2 queues ahead.
  AcquireOne(lm_, 3, 7, LockMode::kShared, &c);
  Drain();
  EXPECT_FALSE(b.resumed);
  EXPECT_FALSE(c.resumed);
  lm_.ReleaseAll(1);
  Drain();
  EXPECT_TRUE(b.resumed);   // 2 got it first (FIFO)
  EXPECT_FALSE(c.resumed);  // 3 still waits behind 2
  lm_.ReleaseAll(2);
  Drain();
  EXPECT_TRUE(c.resumed);
  lm_.ReleaseAll(3);
}

TEST_F(LockTest, TwoCycleDeadlockAbortsRequester) {
  Start(1);
  Start(2);
  Outcome a1, a2, b1, b2;
  AcquireOne(lm_, 1, 10, LockMode::kExclusive, &a1);
  AcquireOne(lm_, 2, 20, LockMode::kExclusive, &a2);
  Drain();
  AcquireOne(lm_, 1, 20, LockMode::kExclusive, &b1);  // 1 waits for 2
  Drain();
  EXPECT_FALSE(b1.resumed);
  AcquireOne(lm_, 2, 10, LockMode::kExclusive, &b2);  // closes the cycle
  Drain();
  EXPECT_TRUE(b2.resumed);
  EXPECT_EQ(b2.result, LockOutcome::kAborted);  // requester is the victim
  EXPECT_EQ(lm_.local_deadlocks(), 1u);
  // Victim's rollback releases its locks; the other waiter proceeds.
  lm_.ReleaseAll(2);
  Drain();
  EXPECT_TRUE(b1.resumed);
  EXPECT_EQ(b1.result, LockOutcome::kGranted);
}

TEST_F(LockTest, ThreeCycleDeadlockIsDetected) {
  for (TxnId t : {1, 2, 3}) Start(t);
  Outcome held[3], waits[3];
  AcquireOne(lm_, 1, 10, LockMode::kExclusive, &held[0]);
  AcquireOne(lm_, 2, 20, LockMode::kExclusive, &held[1]);
  AcquireOne(lm_, 3, 30, LockMode::kExclusive, &held[2]);
  Drain();
  AcquireOne(lm_, 1, 20, LockMode::kExclusive, &waits[0]);  // 1 -> 2
  AcquireOne(lm_, 2, 30, LockMode::kExclusive, &waits[1]);  // 2 -> 3
  Drain();
  AcquireOne(lm_, 3, 10, LockMode::kExclusive, &waits[2]);  // 3 -> 1: cycle
  Drain();
  EXPECT_TRUE(waits[2].resumed);
  EXPECT_EQ(waits[2].result, LockOutcome::kAborted);
  EXPECT_EQ(lm_.local_deadlocks(), 1u);
}

TEST_F(LockTest, SharedSharedNeverDeadlocks) {
  Start(1);
  Start(2);
  Outcome a, b, c, d;
  AcquireOne(lm_, 1, 10, LockMode::kShared, &a);
  AcquireOne(lm_, 2, 20, LockMode::kShared, &b);
  AcquireOne(lm_, 1, 20, LockMode::kShared, &c);
  AcquireOne(lm_, 2, 10, LockMode::kShared, &d);
  Drain();
  EXPECT_TRUE(c.resumed);
  EXPECT_TRUE(d.resumed);
  EXPECT_EQ(lm_.local_deadlocks(), 0u);
}

TEST_F(LockTest, YoungestVictimPolicyAbortsYoungerWaiter) {
  lm_.set_victim_policy(VictimPolicy::kYoungest);
  Start(1);  // older
  sim_.RunUntil(sim_.now() + 10.0);
  Start(2);  // younger
  Outcome a1, a2, w1, w2;
  AcquireOne(lm_, 1, 10, LockMode::kExclusive, &a1);
  AcquireOne(lm_, 2, 20, LockMode::kExclusive, &a2);
  Drain();
  AcquireOne(lm_, 2, 10, LockMode::kExclusive, &w2);  // younger waits first
  Drain();
  AcquireOne(lm_, 1, 20, LockMode::kExclusive, &w1);  // older closes cycle
  Drain();
  // The younger waiter (txn 2) dies; the older requester proceeds to wait
  // and is then granted once 2 releases.
  EXPECT_TRUE(w2.resumed);
  EXPECT_EQ(w2.result, LockOutcome::kAborted);
  lm_.ReleaseAll(2);
  Drain();
  EXPECT_TRUE(w1.resumed);
  EXPECT_EQ(w1.result, LockOutcome::kGranted);
}

TEST_F(LockTest, CancelWaitResumesWithAbort) {
  Start(1);
  Start(2);
  Outcome a, b;
  AcquireOne(lm_, 1, 7, LockMode::kExclusive, &a);
  AcquireOne(lm_, 2, 7, LockMode::kExclusive, &b);
  Drain();
  EXPECT_TRUE(lm_.CancelWait(2));
  Drain();
  EXPECT_TRUE(b.resumed);
  EXPECT_EQ(b.result, LockOutcome::kAborted);
  EXPECT_FALSE(lm_.IsWaiting(2));
  EXPECT_FALSE(lm_.CancelWait(2));  // idempotent
}

TEST_F(LockTest, WaitingForReportsConflictingHoldersAndWaiters) {
  for (TxnId t : {1, 2, 3}) Start(t);
  Outcome a, b, c;
  AcquireOne(lm_, 1, 7, LockMode::kExclusive, &a);
  AcquireOne(lm_, 2, 7, LockMode::kExclusive, &b);
  AcquireOne(lm_, 3, 7, LockMode::kExclusive, &c);
  Drain();
  const auto w2 = lm_.WaitingFor(2);
  ASSERT_EQ(w2.size(), 1u);
  EXPECT_EQ(w2[0], 1u);
  const auto w3 = lm_.WaitingFor(3);  // waits for the holder and txn 2
  EXPECT_EQ(w3.size(), 2u);
}

TEST_F(LockTest, HooksFireOnBlockAndUnblock) {
  Start(1);
  Start(2);
  std::vector<std::string> events;
  lm_.on_block = [&](TxnId t, const std::vector<TxnId>& holders) {
    events.push_back("block " + std::to_string(t) + " on " +
                     std::to_string(holders.at(0)));
  };
  lm_.on_unblock = [&](TxnId t) {
    events.push_back("unblock " + std::to_string(t));
  };
  Outcome a, b;
  AcquireOne(lm_, 1, 7, LockMode::kExclusive, &a);
  AcquireOne(lm_, 2, 7, LockMode::kExclusive, &b);
  Drain();
  lm_.ReleaseAll(1);
  Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "block 2 on 1");
  EXPECT_EQ(events[1], "unblock 2");
}

TEST_F(LockTest, ReleaseAllClearsTableEntries) {
  Start(1);
  Outcome a, b;
  AcquireOne(lm_, 1, 7, LockMode::kShared, &a);
  AcquireOne(lm_, 1, 8, LockMode::kExclusive, &b);
  Drain();
  EXPECT_EQ(lm_.HeldCount(1), 2u);
  lm_.ReleaseAll(1);
  EXPECT_EQ(lm_.HeldCount(1), 0u);
  EXPECT_EQ(lm_.TotalHeld(), 0u);
  lm_.EndTxn(1);
}

TEST_F(LockTest, StatsCountRequestsAndBlocks) {
  Start(1);
  Start(2);
  Outcome a, b;
  AcquireOne(lm_, 1, 7, LockMode::kExclusive, &a);
  AcquireOne(lm_, 2, 7, LockMode::kExclusive, &b);
  Drain();
  EXPECT_EQ(lm_.requests(), 2u);
  EXPECT_EQ(lm_.blocks(), 1u);
  lm_.ResetStats();
  EXPECT_EQ(lm_.requests(), 0u);
}

}  // namespace
}  // namespace carat::lock
