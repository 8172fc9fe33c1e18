// Scheduler disciplines: WsDeque (bounded Chase-Lev), the
// WorkStealingScheduler built on it, and the CentralScheduler wrapper —
// including the pop-rotation regression (central pops must fan out over
// the queues) and a requeue/put-back contention stress meant to run under
// ThreadSanitizer.
#include "match/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "match/ws_deque.hpp"

namespace psme::match {
namespace {

Task dummy_task(std::uintptr_t tag) {
  Task t;
  t.kind = TaskKind::Root;
  t.sign = +1;
  t.wme = reinterpret_cast<const Wme*>(tag);
  return t;
}

std::uintptr_t tag_of(const Task& t) {
  return reinterpret_cast<std::uintptr_t>(t.wme);
}

// --- WsDeque ---------------------------------------------------------------

TEST(WsDeque, OwnerPopIsLifoStealIsFifo) {
  WsDeque d(8);
  for (std::uintptr_t i = 1; i <= 4; ++i)
    ASSERT_TRUE(d.push(dummy_task(i)));
  Task t;
  ASSERT_TRUE(d.pop(&t));
  EXPECT_EQ(tag_of(t), 4u);  // owner takes the newest
  ASSERT_EQ(d.steal(&t), WsDeque::Steal::Got);
  EXPECT_EQ(tag_of(t), 1u);  // thief takes the oldest
  ASSERT_EQ(d.steal(&t), WsDeque::Steal::Got);
  EXPECT_EQ(tag_of(t), 2u);
  ASSERT_TRUE(d.pop(&t));
  EXPECT_EQ(tag_of(t), 3u);
  EXPECT_FALSE(d.pop(&t));
  EXPECT_EQ(d.steal(&t), WsDeque::Steal::Empty);
}

TEST(WsDeque, SlotHeaderRoundTripsTheWorldId) {
  // The slot header word packs (kind, sign, world); a truncated world id
  // would silently cross-wire batch worlds under work stealing.
  WsDeque d(4);
  Task t = dummy_task(77);
  t.kind = TaskKind::JoinLeft;
  t.sign = -1;
  t.world = 0xdeadbeefu;  // full 32-bit range must survive
  ASSERT_TRUE(d.push(t));
  Task out;
  ASSERT_TRUE(d.pop(&out));
  EXPECT_EQ(out.kind, TaskKind::JoinLeft);
  EXPECT_EQ(out.sign, -1);
  EXPECT_EQ(out.world, 0xdeadbeefu);
  EXPECT_EQ(tag_of(out), 77u);
}

TEST(WsDeque, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(WsDeque(5).capacity(), 8u);
  EXPECT_EQ(WsDeque(8).capacity(), 8u);
  EXPECT_EQ(WsDeque(1).capacity(), 2u);
}

TEST(WsDeque, FullDequeRejectsAndBatchPlacesPartially) {
  WsDeque d(4);
  std::vector<Task> batch;
  for (std::uintptr_t i = 1; i <= 6; ++i) batch.push_back(dummy_task(i));
  EXPECT_EQ(d.push_batch(batch.data(), batch.size()), 4u);
  EXPECT_FALSE(d.push(dummy_task(99)));
  EXPECT_EQ(d.approx_size(), 4);
  Task t;
  ASSERT_EQ(d.steal(&t), WsDeque::Steal::Got);
  EXPECT_EQ(tag_of(t), 1u);  // the rejected tail was never placed
  EXPECT_TRUE(d.push(dummy_task(5)));
}

TEST(WsDeque, SlotsSurviveWrapAround) {
  WsDeque d(4);
  Task t;
  for (std::uintptr_t round = 0; round < 10; ++round) {
    ASSERT_TRUE(d.push(dummy_task(round * 2 + 1)));
    ASSERT_TRUE(d.push(dummy_task(round * 2 + 2)));
    ASSERT_EQ(d.steal(&t), WsDeque::Steal::Got);
    EXPECT_EQ(tag_of(t), round * 2 + 1);
    ASSERT_TRUE(d.pop(&t));
    EXPECT_EQ(tag_of(t), round * 2 + 2);
  }
  EXPECT_EQ(d.approx_size(), 0);
}

TEST(WsDeque, OwnerVersusThievesConservesTasks) {
  WsDeque d(64);
  constexpr int kTasks = 20000;
  constexpr int kThieves = 3;
  std::atomic<std::uint64_t> checksum{0};
  std::atomic<int> taken{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int i = 0; i < kThieves; ++i) {
    thieves.emplace_back([&] {
      Task t;
      while (!done.load(std::memory_order_acquire)) {
        switch (d.steal(&t)) {
          case WsDeque::Steal::Got:
            checksum.fetch_add(tag_of(t));
            taken.fetch_add(1);
            break;
          case WsDeque::Steal::Empty:
            std::this_thread::yield();
            break;
          case WsDeque::Steal::Lost:
            break;
        }
      }
    });
  }
  // Owner: pushes everything (re-trying while full), popping now and then.
  Task t;
  for (int i = 1; i <= kTasks; ++i) {
    while (!d.push(dummy_task(static_cast<std::uintptr_t>(i)))) {
      if (d.pop(&t)) {
        checksum.fetch_add(tag_of(t));
        taken.fetch_add(1);
      }
    }
    if (i % 7 == 0 && d.pop(&t)) {
      checksum.fetch_add(tag_of(t));
      taken.fetch_add(1);
    }
  }
  while (d.pop(&t)) {
    checksum.fetch_add(tag_of(t));
    taken.fetch_add(1);
  }
  while (taken.load() < kTasks) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  EXPECT_EQ(taken.load(), kTasks);
  const std::uint64_t n = kTasks;
  EXPECT_EQ(checksum.load(), n * (n + 1) / 2);
}

// The owner publishes plain (non-atomic) payloads through the deque while
// it pushes in batches and pops, against three thieves. Every payload must
// be consumed exactly once and read fully written. Consumers also write the
// payload plainly, so a task taken twice, or read before its publication
// happens-before the taker, is a data race ThreadSanitizer reports: the
// orderings on bottom/top and on the slot header are what make this clean.
TEST(WsDeque, OwnerPushPopAgainstThreeThievesPublishesPayloads) {
  struct Payload {
    std::uint64_t value = 0;
    std::uint64_t check = 0;
    int consumer = -1;
  };
  constexpr int kTasks = 30000;
  constexpr int kThieves = 3;
  constexpr int kOwner = kThieves;
  WsDeque d(16);  // small ring: full pushes, wrap-around, last-element races
  std::vector<Payload> payloads(kTasks);
  std::atomic<int> taken{0};
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};

  auto consume = [&](const Task& t, int who) {
    Payload& p = *reinterpret_cast<Payload*>(tag_of(t));
    if (p.check != ~p.value || p.consumer != -1) bad.fetch_add(1);
    p.consumer = who;
    taken.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (int i = 0; i < kThieves; ++i) {
    thieves.emplace_back([&, i] {
      Task t;
      while (!done.load(std::memory_order_acquire)) {
        if (d.steal(&t) == WsDeque::Steal::Got) consume(t, i);
      }
    });
  }
  Task batch[4];
  Task t;
  for (int i = 0; i < kTasks;) {
    const int n = std::min(1 + i % 4, kTasks - i);
    for (int j = 0; j < n; ++j) {
      Payload& p = payloads[static_cast<std::size_t>(i + j)];
      p.value = static_cast<std::uint64_t>(i + j) * 0x9e3779b97f4a7c15ull;
      p.check = ~p.value;
      batch[j] = dummy_task(reinterpret_cast<std::uintptr_t>(&p));
    }
    const std::size_t placed = d.push_batch(batch, static_cast<std::size_t>(n));
    i += static_cast<int>(placed);
    if ((placed == 0 || i % 3 == 0) && d.pop(&t)) consume(t, kOwner);
  }
  while (d.pop(&t)) consume(t, kOwner);
  while (taken.load() < kTasks) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  EXPECT_EQ(taken.load(), kTasks);
  EXPECT_EQ(bad.load(), 0);
  int by_thieves = 0;
  for (const Payload& p : payloads) {
    ASSERT_NE(p.consumer, -1);
    by_thieves += p.consumer != kOwner;
  }
  // Not asserted > 0: on one core the owner may legitimately take all.
  RecordProperty("stolen", by_thieves);
}

// --- CentralScheduler ------------------------------------------------------

TEST(CentralScheduler, PreservesTaskCountSemantics) {
  CentralScheduler s(2, 3);
  MatchStats stats;
  s.push(dummy_task(1), 0, stats);
  s.push(dummy_task(2), 2, stats);
  EXPECT_EQ(s.task_count(), 2);
  Task t;
  ASSERT_TRUE(s.try_pop(&t, 1, stats));
  s.requeue(t, 1, stats);
  EXPECT_EQ(s.task_count(), 2);  // requeue never touches the count
  EXPECT_EQ(stats.requeues, 1u);
  ASSERT_TRUE(s.try_pop(&t, 1, stats));
  ASSERT_TRUE(s.try_pop(&t, 1, stats));
  s.task_done();
  s.task_done();
  EXPECT_TRUE(s.phase_complete());
  EXPECT_FALSE(s.try_pop(&t, 1, stats));
}

// Regression for the pop-scan offset: pops from one endpoint must rotate
// their starting queue. Before the fix every pop scanned from the
// worker's last *push* hint, so concurrent drainers all converged on the
// same first non-empty queue and serialized on its lock.
TEST(CentralScheduler, ConsecutivePopsRotateAcrossQueues) {
  constexpr int kQueues = 4;
  CentralScheduler s(kQueues, 2);
  MatchStats stats;
  // Endpoint 0 pushes 2 tasks per queue; tag i lands in queue (i-1) % 4
  // (uncontended pushes honour the rotating hint, which starts at the
  // endpoint id = 0).
  for (std::uintptr_t i = 1; i <= 2 * kQueues; ++i)
    s.push(dummy_task(i), 0, stats);

  // Endpoint 1's first kQueues pops must each come from a distinct queue.
  std::set<std::uintptr_t> queues_hit;
  for (int i = 0; i < kQueues; ++i) {
    Task t;
    ASSERT_TRUE(s.try_pop(&t, 1, stats));
    queues_hit.insert((tag_of(t) - 1) % kQueues);
  }
  EXPECT_EQ(queues_hit.size(), static_cast<std::size_t>(kQueues))
      << "pops did not fan out over the queues";
  // And the rotation keeps going: the next kQueues pops drain the rest.
  for (int i = 0; i < kQueues; ++i) {
    Task t;
    ASSERT_TRUE(s.try_pop(&t, 1, stats));
    queues_hit.insert((tag_of(t) - 1) % kQueues);
    s.task_done();
  }
}

TEST(CentralScheduler, PushBatchMatchesSequentialPushes) {
  CentralScheduler s(2, 1);
  MatchStats stats;
  std::vector<Task> batch = {dummy_task(1), dummy_task(2), dummy_task(3)};
  s.push_batch(batch.data(), batch.size(), 0, stats);
  EXPECT_EQ(s.task_count(), 3);
  Task t;
  std::set<std::uintptr_t> seen;
  while (s.try_pop(&t, 0, stats)) {
    seen.insert(tag_of(t));
    s.task_done();
  }
  EXPECT_EQ(seen, (std::set<std::uintptr_t>{1, 2, 3}));
  EXPECT_TRUE(s.phase_complete());
}

// --- WorkStealingScheduler -------------------------------------------------

TEST(WorkStealingScheduler, OwnPopBeforeStealing) {
  WorkStealingScheduler s(2);
  MatchStats stats;
  s.push(dummy_task(1), 0, stats);
  s.push(dummy_task(2), 1, stats);
  Task t;
  ASSERT_TRUE(s.try_pop(&t, 0, stats));
  EXPECT_EQ(tag_of(t), 1u);  // own deque first
  EXPECT_EQ(stats.steal_attempts, 0u);
  ASSERT_TRUE(s.try_pop(&t, 0, stats));
  EXPECT_EQ(tag_of(t), 2u);  // then steal
  EXPECT_EQ(stats.steal_successes, 1u);
  EXPECT_GE(stats.steal_attempts, 1u);
  s.task_done();
  s.task_done();
  EXPECT_TRUE(s.phase_complete());
}

TEST(WorkStealingScheduler, ControlEndpointFeedsWorkersByStealing) {
  // Control = last endpoint; it pushes roots and never pops. Every worker
  // must be able to acquire them.
  WorkStealingScheduler s(4);
  MatchStats stats;
  const unsigned control = 3;
  for (std::uintptr_t i = 1; i <= 6; ++i)
    s.push(dummy_task(i), control, stats);
  std::set<std::uintptr_t> seen;
  Task t;
  for (unsigned worker = 0; worker < 3; ++worker) {
    ASSERT_TRUE(s.try_pop(&t, worker, stats));
    seen.insert(tag_of(t));
    s.task_done();
    ASSERT_TRUE(s.try_pop(&t, worker, stats));
    seen.insert(tag_of(t));
    s.task_done();
  }
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_TRUE(s.phase_complete());
}

TEST(WorkStealingScheduler, BatchPushCountsOnceAndAllTasksVisible) {
  WorkStealingScheduler s(2);
  MatchStats stats;
  std::vector<Task> batch;
  for (std::uintptr_t i = 1; i <= 5; ++i) batch.push_back(dummy_task(i));
  s.push_batch(batch.data(), batch.size(), 0, stats);
  EXPECT_EQ(s.task_count(), 5);
  Task t;
  std::set<std::uintptr_t> seen;
  while (s.try_pop(&t, 1, stats)) {  // all via stealing
    seen.insert(tag_of(t));
    s.task_done();
  }
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(s.phase_complete());
}

TEST(WorkStealingScheduler, RequeueDoesNotTouchTaskCount) {
  WorkStealingScheduler s(2);
  MatchStats stats;
  s.push(dummy_task(1), 0, stats);
  EXPECT_EQ(s.task_count(), 1);
  Task t;
  ASSERT_TRUE(s.try_pop(&t, 0, stats));
  s.requeue(t, 0, stats);
  EXPECT_EQ(s.task_count(), 1);
  EXPECT_EQ(stats.requeues, 1u);
  ASSERT_TRUE(s.try_pop(&t, 0, stats));
  s.task_done();
  EXPECT_TRUE(s.phase_complete());
}

TEST(WorkStealingScheduler, OverflowSpillsAreCountedAndRecovered) {
  WorkStealingScheduler s(2, /*deque_capacity=*/4);
  MatchStats stats;
  std::vector<Task> batch;
  for (std::uintptr_t i = 1; i <= 10; ++i) batch.push_back(dummy_task(i));
  s.push_batch(batch.data(), batch.size(), 0, stats);
  EXPECT_EQ(s.task_count(), 10);
  EXPECT_EQ(stats.steal_overflow, 6u);  // capacity 4, the rest spilled
  Task t;
  std::set<std::uintptr_t> seen;
  while (s.try_pop(&t, 0, stats)) {  // owner drains deque then overflow
    seen.insert(tag_of(t));
    s.task_done();
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_TRUE(s.phase_complete());
}

TEST(WorkStealingScheduler, ThievesRaidVictimOverflow) {
  WorkStealingScheduler s(2, /*deque_capacity=*/2);
  MatchStats stats;
  std::vector<Task> batch;
  for (std::uintptr_t i = 1; i <= 6; ++i) batch.push_back(dummy_task(i));
  s.push_batch(batch.data(), batch.size(), 0, stats);  // 2 in deque, 4 spill
  Task t;
  std::set<std::uintptr_t> seen;
  while (s.try_pop(&t, 1, stats)) {  // endpoint 1 owns nothing: all stolen
    seen.insert(tag_of(t));
    s.task_done();
  }
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(stats.steal_successes, 6u);
  EXPECT_TRUE(s.phase_complete());
}

// Requeue (MRSW put-back) contention stress: producers batch-push, while
// consumers pop, occasionally put tasks back (as the MRSW scheme does on
// an opposite-side conflict), steal from each other, and overflow the
// deliberately tiny deques. Run under ThreadSanitizer in CI — this is the
// test that would catch a racy slot or a top/bottom fence bug.
TEST(WorkStealingScheduler, RequeueContentionStressConservesTasks) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 4000;
  constexpr int kBatch = 8;
  // Endpoints: consumers 0..2, producers 3..4 (the "control" style
  // endpoints that push and never pop).
  WorkStealingScheduler s(kProducers + kConsumers, /*deque_capacity=*/32);

  std::atomic<int> consumed{0};
  std::atomic<std::uint64_t> checksum{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      MatchStats stats;
      const unsigned ep = static_cast<unsigned>(kConsumers + p);
      std::vector<Task> batch;
      for (int i = 0; i < kPerProducer; ++i) {
        batch.push_back(dummy_task(
            static_cast<std::uintptr_t>(p * kPerProducer + i + 1)));
        if (static_cast<int>(batch.size()) == kBatch) {
          s.push_batch(batch.data(), batch.size(), ep, stats);
          batch.clear();
        }
      }
      s.push_batch(batch.data(), batch.size(), ep, stats);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      MatchStats stats;
      const unsigned ep = static_cast<unsigned>(c);
      int since_requeue = 0;
      while (consumed.load() < kProducers * kPerProducer) {
        Task t;
        if (!s.try_pop(&t, ep, stats)) {
          std::this_thread::yield();
          continue;
        }
        if (++since_requeue >= 13) {  // put back every 13th task once
          since_requeue = 0;
          s.requeue(t, ep, stats);
          continue;
        }
        checksum.fetch_add(tag_of(t));
        s.task_done();
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_TRUE(s.phase_complete());
  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(checksum.load(), n * (n + 1) / 2);
}

TEST(MakeScheduler, FactorySelectsDiscipline) {
  auto central = make_scheduler(SchedulerKind::Central, 2, 3,
                                WsDeque::kDefaultCapacity);
  auto steal =
      make_scheduler(SchedulerKind::Steal, 2, 3, WsDeque::kDefaultCapacity);
  EXPECT_NE(dynamic_cast<CentralScheduler*>(central.get()), nullptr);
  EXPECT_NE(dynamic_cast<WorkStealingScheduler*>(steal.get()), nullptr);
  EXPECT_EQ(central->endpoints(), 3);
  EXPECT_EQ(steal->endpoints(), 3);
}

}  // namespace
}  // namespace psme::match
