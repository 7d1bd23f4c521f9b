#include "common/tuple_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "common/engine_options.h"
#include "common/memory_accounting.h"
#include "common/thread_counter.h"

namespace genealog::pool {
namespace {

// Blocks per refill batch between a thread cache and the central list; a
// thread cache holds at most kCacheCapacity blocks per class and spills half
// when full, so blocks keep circulating under producer/consumer imbalance
// (e.g. a sink thread that frees everything the source threads allocate).
constexpr size_t kRefillBatch = 64;
constexpr size_t kCacheCapacity = 256;

// Blocks carved per slab.
constexpr size_t kBlocksPerSlab = 256;

// The central free list is an array of block pointers, not an intrusive
// linked list: spill and refill are memcpys over the array's own storage, so
// the lock hold time never includes chasing next-pointers through block
// memory that was last written by another core.
struct CentralClass {
  std::mutex mu;
  std::vector<void*> free_blocks;  // guarded by mu
  char* bump = nullptr;            // unallocated region of the newest slab
  char* bump_end = nullptr;        // guarded by mu
  std::vector<void*> slabs;        // guarded by mu; freed never
};

// Flow counters bumped on every allocation are per-thread (sum on read), so
// the allocate/release pair touches no cache line another thread writes.
// fresh_carves only moves on the locked refill path, so it stays a plain
// shared atomic.
struct PoolAllocsTag;
struct HeapAllocsTag;
using PoolAllocs = ThreadCounter<PoolAllocsTag>;
using HeapAllocs = ThreadCounter<HeapAllocsTag>;

struct Central {
  CentralClass classes[kNumClasses];
  std::atomic<uint64_t> fresh_carves{0};
  std::atomic<uint64_t> slabs{0};
  std::atomic<uint64_t> slab_bytes{0};
};

// Leaked on purpose: thread caches flush into it from thread_local
// destructors, which may run after static destructors on the main thread.
Central& central() {
  static Central* c = new Central;
  return *c;
}

std::atomic<int> g_enabled{-1};  // -1 unread, 0 off, 1 on

bool ReadEnabledFromEnv() { return engine_defaults::TuplePool(); }

// Carves a fresh slab for `cls` and points the bump region at it. Caller
// holds cls.mu.
void AddSlab(CentralClass& cls, uint8_t size_class) {
  const size_t block = ClassBytes(size_class);
  const size_t bytes = block * kBlocksPerSlab;
  char* slab = static_cast<char*>(::operator new(bytes));
  cls.slabs.push_back(slab);
  cls.bump = slab;
  cls.bump_end = slab + bytes;
  // Every block this slab adds could end up on the free array at once; grow
  // it outside the hot path so spills never reallocate mid-lock.
  cls.free_blocks.reserve(cls.slabs.size() * kBlocksPerSlab);
  Central& c = central();
  c.slabs.fetch_add(1, std::memory_order_relaxed);
  c.slab_bytes.fetch_add(bytes, std::memory_order_relaxed);
  mem::AddPoolSlabBytes(static_cast<int64_t>(bytes));
}

// Per-thread cache: a bounded LIFO of free blocks per class. The destructor
// flushes everything back to the central lists so short-lived threads (bench
// repetitions spawn one thread per operator) don't strand blocks.
class ThreadCache {
 public:
  ~ThreadCache() {
    for (int c = 0; c < kNumClasses; ++c) {
      Spill(static_cast<uint8_t>(c), counts_[c]);
    }
  }

  void* Pop(uint8_t size_class) {
    size_t& n = counts_[size_class];
    if (n == 0 && !Refill(size_class)) return nullptr;
    return blocks_[size_class][--n];
  }

  void Push(uint8_t size_class, void* p) {
    size_t& n = counts_[size_class];
    if (n == kCacheCapacity) Spill(size_class, kCacheCapacity / 2);
    blocks_[size_class][n++] = p;
  }

  void SpillAll() {
    for (int c = 0; c < kNumClasses; ++c) {
      Spill(static_cast<uint8_t>(c), counts_[c]);
    }
  }

 private:
  // Pulls blocks from the central class: a batch of recycled blocks off the
  // free array, or — only when it is empty — exactly one fresh block of
  // slab space. Carving one at a time keeps recycled_allocs exact
  // (pool_allocs - fresh_carves) and only costs an extra lock round-trip
  // during warm-up, the one phase the pool does not claim to optimize.
  bool Refill(uint8_t size_class) {
    CentralClass& cls = central().classes[size_class];
    size_t got = 0;
    {
      std::lock_guard lock(cls.mu);
      const size_t take = std::min(kRefillBatch, cls.free_blocks.size());
      if (take > 0) {
        void* const* from =
            cls.free_blocks.data() + cls.free_blocks.size() - take;
        std::copy(from, from + take, blocks_[size_class]);
        cls.free_blocks.resize(cls.free_blocks.size() - take);
        got = take;
      } else {
        if (cls.bump == cls.bump_end) AddSlab(cls, size_class);
        blocks_[size_class][got++] = cls.bump;
        cls.bump += ClassBytes(size_class);
        central().fresh_carves.fetch_add(1, std::memory_order_relaxed);
      }
    }
    counts_[size_class] = got;
    return got > 0;
  }

  void Spill(uint8_t size_class, size_t n_spill) {
    size_t& n = counts_[size_class];
    if (n_spill == 0 || n == 0) return;
    if (n_spill > n) n_spill = n;
    CentralClass& cls = central().classes[size_class];
    std::lock_guard lock(cls.mu);
    cls.free_blocks.insert(cls.free_blocks.end(),
                           blocks_[size_class] + n - n_spill,
                           blocks_[size_class] + n);
    n -= n_spill;
  }

  void* blocks_[kNumClasses][kCacheCapacity];
  size_t counts_[kNumClasses] = {};
};

ThreadCache& thread_cache() {
  // Touch the central pool first so its (leaked) storage outlives every
  // thread cache, including the main thread's.
  central();
  thread_local ThreadCache cache;
  return cache;
}

}  // namespace

bool Enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    v = ReadEnabledFromEnv() ? 1 : 0;
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void SetEnabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

void* Allocate(size_t bytes, uint8_t& size_class) {
  const uint8_t cls = SizeClassFor(bytes);
  if (cls == kHeapClass || !Enabled()) {
    size_class = kHeapClass;
    HeapAllocs::Add(1);
    return ::operator new(bytes);
  }
  size_class = cls;
  PoolAllocs::Add(1);
  return thread_cache().Pop(cls);
}

void Deallocate(void* p, uint8_t size_class) noexcept {
  if (p == nullptr) return;
  if (size_class == kHeapClass) {
    ::operator delete(p);
    return;
  }
  thread_cache().Push(size_class, p);
}

void FlushThreadCache() { thread_cache().SpillAll(); }

Stats GetStats() {
  Central& c = central();
  Stats s;
  s.slabs = c.slabs.load(std::memory_order_relaxed);
  s.slab_bytes = c.slab_bytes.load(std::memory_order_relaxed);
  s.pool_allocs = static_cast<uint64_t>(PoolAllocs::Sum());
  const uint64_t fresh = c.fresh_carves.load(std::memory_order_relaxed);
  s.recycled_allocs = s.pool_allocs > fresh ? s.pool_allocs - fresh : 0;
  s.heap_allocs = static_cast<uint64_t>(HeapAllocs::Sum());
  return s;
}

void ResetStats() {
  PoolAllocs::Rebase();
  HeapAllocs::Rebase();
  central().fresh_carves.store(0, std::memory_order_relaxed);
}

}  // namespace genealog::pool
