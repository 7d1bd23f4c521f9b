// StreamEdge under two threads.
//
// The stress tests run the real edge shape — one producer, one consumer,
// with randomized stalls on both sides — over a million mixed batches and
// assert the stream invariants: no tuple lost, no tuple reordered or
// duplicated, watermarks nondecreasing, flush delivered last. The abort test
// tears a live stream down and checks the drain is an exact prefix of what
// was pushed. They are the TSan gate for the edge's blocking, coalescing and
// abort paths (CI runs them under -fsanitize=thread). The single-thread
// queue contract is pinned by common/coalesce_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "spe/node.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;

struct StressConfig {
  uint64_t seed = 1;
  int batches = 1'000'000;
  size_t capacity = 256;
  size_t max_coalesce = 16;
  bool use_pop_many = true;
};

// Producer: `batches` randomized batches — ~70% data (1-3 tuples carrying a
// global sequence number in `value`), ~30% watermark advances — with
// occasional stalls, then a final flush. Consumer: Pop/PopMany with its own
// stalls. Asserts the full stream contract on the consumer side.
void RunStress(const StressConfig& config) {
  StreamEdge edge(config.capacity);

  std::thread producer([&] {
    SplitMix64 rng(config.seed);
    int64_t seq = 0;
    int64_t ts = 0;
    for (int i = 0; i < config.batches; ++i) {
      if (rng.UniformInt(0, 9) < 7) {
        StreamBatch batch;
        const int n = static_cast<int>(rng.UniformInt(1, 3));
        for (int k = 0; k < n; ++k) {
          batch.tuples.push_back(V(ts, seq++));
          ts += rng.UniformInt(0, 1);
        }
        ASSERT_TRUE(edge.Push(std::move(batch), config.max_coalesce));
      } else {
        // Watermark at the highest emitted ts: nondecreasing by construction.
        ASSERT_TRUE(edge.Push(StreamBatch::MakeWatermark(ts),
                              config.max_coalesce));
      }
      if (rng.UniformInt(0, 999) == 0) std::this_thread::yield();
      if (rng.UniformInt(0, 9999) == 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.UniformInt(1, 50)));
      }
    }
    ASSERT_TRUE(edge.Push(StreamBatch::MakeFlush(), config.max_coalesce));
  });

  SplitMix64 rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  int64_t next_seq = 0;
  int64_t last_ts = 0;
  int64_t last_wm = kNoWatermark;
  bool flushed = false;
  std::vector<StreamBatch> burst;
  while (!flushed) {
    burst.clear();
    if (config.use_pop_many && rng.UniformInt(0, 1) == 0) {
      ASSERT_TRUE(edge.PopMany(burst));
    } else {
      auto batch = edge.Pop();
      ASSERT_TRUE(batch.has_value());
      burst.push_back(std::move(*batch));
    }
    for (StreamBatch& batch : burst) {
      ASSERT_FALSE(flushed) << "batch after flush";
      for (const TuplePtr& t : batch.tuples) {
        const auto& v = static_cast<const testing::ValueTuple&>(*t);
        ASSERT_EQ(v.value, next_seq) << "lost/reordered/duplicated tuple";
        ++next_seq;
        ASSERT_GE(t->ts, last_ts) << "timestamp order broken";
        last_ts = t->ts;
        if (last_wm != kNoWatermark) {
          ASSERT_GE(t->ts, last_wm) << "tuple below watermark";
        }
      }
      if (batch.has_watermark()) {
        ASSERT_GE(batch.watermark, last_wm) << "watermark regressed";
        last_wm = batch.watermark;
      }
      flushed = batch.flush;
    }
    if (rng.UniformInt(0, 999) == 0) std::this_thread::yield();
    if (rng.UniformInt(0, 9999) == 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.UniformInt(1, 50)));
    }
  }
  producer.join();
  // Everything the producer emitted arrived, in order, before the flush.
  EXPECT_FALSE(edge.TryPop().has_value());
  EXPECT_GT(next_seq, 0);
  EXPECT_EQ(edge.Weight(), 0u);
}

TEST(EdgeStressTest, MillionMixedBatchesNoLossNoReorder) {
  StressConfig config;
  config.seed = 7;
  RunStress(config);
}

TEST(EdgeStressTest, TinyCapacityMaximizesBlocking) {
  // Capacity 2 forces constant producer/consumer parking: the condvar
  // handshake gets exercised thousands of times.
  StressConfig config;
  config.seed = 11;
  config.batches = 100'000;
  config.capacity = 2;
  config.max_coalesce = 4;
  RunStress(config);
}

TEST(EdgeStressTest, PopOnlyConsumerKeepsOrder) {
  StressConfig config;
  config.seed = 13;
  config.batches = 200'000;
  config.use_pop_many = false;
  RunStress(config);
}

TEST(EdgeStressTest, AbortMidStreamDrainsExactPrefix) {
  StreamEdge edge(64);
  std::atomic<int64_t> pushed{0};
  std::thread producer([&] {
    int64_t seq = 0;
    for (;;) {
      if (!edge.Push(StreamBatch::MakeTuple(V(seq, seq)), 8)) break;
      pushed.store(++seq, std::memory_order_release);
    }
  });
  // Consume a while mid-flight, then tear the stream down and drain.
  int64_t next = 0;
  while (next < 10'000) {
    auto batch = edge.Pop();
    ASSERT_TRUE(batch.has_value());
    for (const TuplePtr& t : batch->tuples) {
      ASSERT_EQ(static_cast<const testing::ValueTuple&>(*t).value, next);
      ++next;
    }
  }
  edge.Abort();
  producer.join();
  // The drain must be an exact prefix of the pushed sequence: every batch
  // that entered the edge arrives, in order, nothing after — the batch whose
  // push failed never entered.
  while (auto batch = edge.Pop()) {
    for (const TuplePtr& t : batch->tuples) {
      ASSERT_EQ(static_cast<const testing::ValueTuple&>(*t).value, next);
      ++next;
    }
  }
  EXPECT_EQ(next, pushed.load());
  EXPECT_FALSE(edge.TryPop().has_value());
}

}  // namespace
}  // namespace genealog
