#include "common/memory_accounting.h"

#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <thread>
#include <vector>

namespace genealog::mem {
namespace {

class MemoryAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }
};

TEST_F(MemoryAccountingTest, AddSubTracksLiveBytes) {
  Add(1, 100);
  Add(1, 50);
  EXPECT_EQ(LiveBytes(1), 150);
  Sub(1, 30);
  EXPECT_EQ(LiveBytes(1), 120);
}

TEST_F(MemoryAccountingTest, InstancesAreIndependent) {
  Add(1, 100);
  Add(2, 10);
  EXPECT_EQ(LiveBytes(1), 100);
  EXPECT_EQ(LiveBytes(2), 10);
  EXPECT_EQ(LiveBytes(3), 0);
}

TEST_F(MemoryAccountingTest, PeakHoldsHighWater) {
  Add(1, 100);
  Sub(1, 90);
  Add(1, 20);
  EXPECT_EQ(LiveBytes(1), 30);
  EXPECT_EQ(PeakBytes(1), 100);
}

TEST_F(MemoryAccountingTest, TotalSumsInstances) {
  Add(1, 5);
  Add(2, 7);
  EXPECT_EQ(TotalLiveBytes(), 12);
}

TEST_F(MemoryAccountingTest, ThreadLocalInstanceId) {
  SetCurrentInstance(3);
  EXPECT_EQ(CurrentInstance(), 3);
  std::thread other([] {
    EXPECT_EQ(CurrentInstance(), 0);  // fresh thread gets the default pool
    SetCurrentInstance(5);
    EXPECT_EQ(CurrentInstance(), 5);
  });
  other.join();
  EXPECT_EQ(CurrentInstance(), 3);
  SetCurrentInstance(0);
}

TEST_F(MemoryAccountingTest, ConcurrentAddSubIsExact) {
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (int j = 0; j < kIters; ++j) {
        Add(1, 8);
        Sub(1, 8);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(LiveBytes(1), 0);
  EXPECT_GE(PeakBytes(1), 8);
}

TEST_F(MemoryAccountingTest, LiveTupleCountIsExactAcrossThreads) {
  // The live-tuple count is per-thread cells summed on read. K creating
  // threads count tuples in, M other threads count them out; at each read
  // some of them have exited and the rest are alive, parked on a latch.
  constexpr int kCreators = 4;
  constexpr int kReleasers = 3;
  constexpr int kPerCreator = 5000;
  constexpr int kTotal = kCreators * kPerCreator;
  const int64_t base = LiveTupleCount();

  std::latch created(kCreators);
  std::latch released(kReleasers);
  std::latch finish(1);
  std::vector<std::thread> creators;
  for (int c = 0; c < kCreators; ++c) {
    creators.emplace_back([&, c] {
      for (int i = 0; i < kPerCreator; ++i) AddTupleCount(1);
      created.count_down();
      if (c % 2 == 0) finish.wait();
    });
  }
  created.wait();
  for (int c = 1; c < kCreators; c += 2) {
    creators[static_cast<size_t>(c)].join();
  }
  EXPECT_EQ(LiveTupleCount() - base, kTotal);

  std::vector<std::thread> releasers;
  for (int r = 0; r < kReleasers; ++r) {
    releasers.emplace_back([&, r] {
      // Releaser r drops every kReleasers-th tuple, starting at r.
      for (int i = r; i < kTotal; i += kReleasers) AddTupleCount(-1);
      released.count_down();
      if (r == 0) finish.wait();
    });
  }
  released.wait();
  for (int r = 1; r < kReleasers; ++r) {
    releasers[static_cast<size_t>(r)].join();
  }
  EXPECT_EQ(LiveTupleCount(), base);

  finish.count_down();
  for (int c = 0; c < kCreators; c += 2) {
    creators[static_cast<size_t>(c)].join();
  }
  releasers[0].join();
  EXPECT_EQ(LiveTupleCount(), base);
}

TEST_F(MemoryAccountingTest, CountsFromLateThreadExitDestructorsAreKept) {
  // A thread-local destroyed after the counter's own exit hook (it was
  // constructed first) still releases a tuple: the count must not drop it.
  struct LateRelease {
    ~LateRelease() { AddTupleCount(-1); }
  };
  const int64_t base = LiveTupleCount();
  std::thread([] {
    thread_local LateRelease late;
    (void)&late;
    AddTupleCount(1);
  }).join();
  EXPECT_EQ(LiveTupleCount(), base);
}

TEST_F(MemoryAccountingTest, RssIsPositive) {
  EXPECT_GT(ReadRssBytes(), 0);
}

TEST_F(MemoryAccountingTest, SamplerProducesSeries) {
  Add(1, 1000);
  MemorySampler sampler(/*n_instances=*/2, /*period_ms=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.Stop();
  const auto series = sampler.series(1);
  EXPECT_GT(series.samples, 0);
  EXPECT_EQ(series.max_bytes, 1000);
  EXPECT_DOUBLE_EQ(series.avg_bytes, 1000.0);
  const auto total = sampler.total();
  EXPECT_EQ(total.max_bytes, 1000);
}

}  // namespace
}  // namespace genealog::mem
