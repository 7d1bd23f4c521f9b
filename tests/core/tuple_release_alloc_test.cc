// Steady-state allocation regression for the release cascade: once the pool
// and the thread's counters are warm, dropping the last reference to a
// tuple — a lone source tuple, a Q4-shaped join/aggregate graph, a Q3-sized
// aggregate N-chain — performs zero heap allocations. The cascade's work
// stack lives inline on the releasing frame; only a cascade with more
// children pending at once than the inline stack holds may spill, and it
// must still reclaim every tuple.
//
// Heap allocations are counted by replacing the global operator new, which
// is why this suite is its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "common/memory_accounting.h"
#include "core/instrumentation.h"
#include "testing/test_tuples.h"

namespace {
std::atomic<int64_t> g_heap_allocs{0};
}  // namespace

void* operator new(size_t bytes) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

// Heap allocations performed by `release`.
template <typename F>
int64_t AllocsDuring(F&& release) {
  const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  release();
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

// An aggregate over an n-tuple window (GL instrumentation: U2 = first,
// U1 = last, N-chain through the window). Q3's daily windows chain 192.
TuplePtr AggregateChain(int n) {
  std::vector<IntrusivePtr<ValueTuple>> window;
  window.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto t = V(i, i);
    InstrumentSource(ProvenanceMode::kGenealog, *t);
    window.push_back(std::move(t));
  }
  auto agg = V(n, 0);
  InstrumentAggregate(ProvenanceMode::kGenealog, *agg,
                      std::span<const IntrusivePtr<ValueTuple>>(window));
  return agg;
}

// Q4's sink-side graph: 25 source readings, each copied by the Multiplex;
// 24 copies feed the daily-sum aggregate, the 25th (the midnight reading)
// joins the aggregate's output.
TuplePtr Q4Graph() {
  auto copy = [](int64_t ts) {
    auto source = V(ts, ts);
    InstrumentSource(ProvenanceMode::kGenealog, *source);
    auto out = V(ts, ts);
    InstrumentUnary(ProvenanceMode::kGenealog, *out, TupleKind::kMultiplex,
                    *source);
    return out;
  };
  std::vector<IntrusivePtr<ValueTuple>> day;
  for (int h = 0; h < 24; ++h) day.push_back(copy(h));
  auto daily = V(24, 0);
  InstrumentAggregate(ProvenanceMode::kGenealog, *daily,
                      std::span<const IntrusivePtr<ValueTuple>>(day));
  auto midnight = copy(24);
  auto join = V(24, 0);
  InstrumentJoin(ProvenanceMode::kGenealog, *join, *midnight, *daily);
  return join;
}

class TupleReleaseAllocTest : public ::testing::Test {
 protected:
  void SetUp() override { base_ = mem::LiveTupleCount(); }
  int64_t LiveDelta() const { return mem::LiveTupleCount() - base_; }

  // Builds and releases `make()`'s graph once to warm the pool and the
  // thread's counters, then measures the release of a second copy.
  template <typename Make>
  int64_t WarmReleaseAllocs(Make&& make) {
    make().reset();
    TuplePtr root = make();
    return AllocsDuring([&] { root.reset(); });
  }

 private:
  int64_t base_ = 0;
};

TEST_F(TupleReleaseAllocTest, LoneSourceTupleReleasesWithoutAllocating) {
  EXPECT_EQ(WarmReleaseAllocs([] { return TuplePtr(V(1, 1)); }), 0);
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(TupleReleaseAllocTest, Q4GraphReleasesWithoutAllocating) {
  EXPECT_EQ(WarmReleaseAllocs(Q4Graph), 0);
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(TupleReleaseAllocTest, Q3SizedAggregateChainReleasesWithoutAllocating) {
  EXPECT_EQ(WarmReleaseAllocs([] { return AggregateChain(192); }), 0);
  EXPECT_EQ(LiveDelta(), 0);
}

TEST_F(TupleReleaseAllocTest, ManyReleasesStayAllocationFree) {
  WarmReleaseAllocs(Q4Graph);
  int64_t allocs = 0;
  for (int i = 0; i < 200; ++i) {
    TuplePtr q4 = Q4Graph();
    TuplePtr chain = AggregateChain(192);
    allocs += AllocsDuring([&] {
      q4.reset();
      chain.reset();
    });
  }
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(LiveDelta(), 0);
}

// Every join's older input is the previous join and its newer input a fresh
// source, so each step of the depth-first cascade leaves one source pending:
// far more than the inline stack holds at once. The stack spills to the heap
// and the cascade still reclaims all of it.
TEST_F(TupleReleaseAllocTest, OverflowingJoinTreeSpillsAndReclaimsEverything) {
  constexpr int kJoins = 1000;
  TuplePtr root = V(0, 0);
  for (int i = 1; i <= kJoins; ++i) {
    auto newer = V(i, i);
    auto join = V(i, 0);
    InstrumentJoin(ProvenanceMode::kGenealog, *join, *newer, *root);
    root = std::move(join);
  }
  EXPECT_EQ(LiveDelta(), 2 * kJoins + 1);
  const int64_t allocs = AllocsDuring([&] { root.reset(); });
  EXPECT_GT(allocs, 0) << "the cascade never spilled: the tree no longer "
                          "exercises the overflow path";
  EXPECT_EQ(LiveDelta(), 0);
}

}  // namespace
}  // namespace genealog
