// Recycling slab allocator for tuple storage.
//
// GeneaLog's overhead argument (§4, §7) rests on tuple handling costing a
// small constant per tuple; once the data plane is batched, the global
// new/delete pair inside MakeTuple is the dominant remaining per-tuple cost.
// The pool replaces it with size-class slab allocation:
//
//  * sizes are rounded up to one of a few fixed size classes; each class
//    carves blocks out of large slabs obtained from the OS;
//  * every thread keeps a small per-class cache of free blocks, so the
//    steady-state allocate/release pair is a thread-local pointer pop and
//    push;
//  * the flow counters (pool_allocs, heap_allocs) are per-thread cells
//    summed by GetStats (common/thread_counter.h), so counting an
//    allocation writes no cache line another thread writes;
//  * the caches overflow into (and refill from) a mutex-protected central
//    free list per class, which also makes cross-thread release correct: a
//    producer thread may allocate a tuple whose last reference is dropped on
//    a downstream thread, in which case the block simply migrates to the
//    releasing thread's cache (and eventually to the central list);
//  * once warmed up, query execution allocates from the OS only when the
//    live-tuple high-water mark grows — slabs are never returned.
//
// On top of the pool, MakeTuple and the release cascade (core/tuple.{h,cc})
// each bump the per-thread live-tuple count (mem::AddTupleCount) and do one
// shared atomic RMW on the instance's live/peak byte counters
// (mem::Add/Sub). That RMW is the only cross-thread write left on the
// lifecycle; it stays shared because the peak it maintains is the reported
// memory figure.
//
// Callers record the size class a block came from (tuples stash it in their
// header, see core/tuple.h) and hand it back to Deallocate, so toggling the
// pool at runtime can never mismatch allocate/release paths. Blocks larger
// than the biggest class, and every allocation when the pool is disabled
// (GENEALOG_TUPLE_POOL=0), fall back to the heap under kHeapClass.
#ifndef GENEALOG_COMMON_TUPLE_POOL_H_
#define GENEALOG_COMMON_TUPLE_POOL_H_

#include <cstddef>
#include <cstdint>

namespace genealog::pool {

// Block alignment every class guarantees (slabs come from operator new and
// class strides are multiples of it).
inline constexpr size_t kBlockAlign = alignof(std::max_align_t);

// Size classes are multiples of 64 bytes: 64, 128, ..., 512. Tuples cluster
// tightly here — the Tuple header is ~96 bytes and payloads add a few words —
// so a linear stride wastes less than a geometric one would.
inline constexpr size_t kClassStride = 64;
inline constexpr int kNumClasses = 8;
inline constexpr size_t kMaxPooledBytes = kNumClasses * kClassStride;

// Sentinel class for blocks owned by the heap, not the pool.
inline constexpr uint8_t kHeapClass = 0xFF;

// Class serving `bytes`, or kHeapClass when bytes > kMaxPooledBytes.
constexpr uint8_t SizeClassFor(size_t bytes) {
  if (bytes > kMaxPooledBytes) return kHeapClass;
  const size_t rounded = bytes == 0 ? 1 : bytes;
  return static_cast<uint8_t>((rounded - 1) / kClassStride);
}

// Block size of a pooled class.
constexpr size_t ClassBytes(uint8_t size_class) {
  return (static_cast<size_t>(size_class) + 1) * kClassStride;
}

// Whether allocations go through the pool. Reads GENEALOG_TUPLE_POOL once at
// first use (unset or any value but "0" means enabled).
bool Enabled();
// Overrides the env-derived setting; in-flight blocks are unaffected because
// release is keyed on the block's recorded class, not the current setting.
void SetEnabled(bool on);

// Allocates storage for `bytes`, writing the class the block belongs to into
// `size_class` (kHeapClass for heap fallback). Never returns null (throws
// std::bad_alloc like operator new).
void* Allocate(size_t bytes, uint8_t& size_class);

// Returns a block to the class it was allocated from.
void Deallocate(void* p, uint8_t size_class) noexcept;

// Drains the calling thread's caches into the central free lists, making
// every block it released visible to other threads (tests; also useful for
// short-lived worker threads, though thread exit flushes automatically).
void FlushThreadCache();

// --- observability -----------------------------------------------------------
struct Stats {
  uint64_t slabs = 0;            // slabs carved from the OS
  uint64_t slab_bytes = 0;       // total bytes reserved in slabs
  uint64_t pool_allocs = 0;      // allocations served by the pool
  uint64_t recycled_allocs = 0;  // ...of which reused a released block
  uint64_t heap_allocs = 0;      // fallback allocations (disabled / oversize)

  // Fraction of pooled allocations served by recycling rather than carving
  // fresh slab space — ~1.0 in steady state.
  double recycle_hit_rate() const {
    return pool_allocs == 0
               ? 0.0
               : static_cast<double>(recycled_allocs) /
                     static_cast<double>(pool_allocs);
  }
};

// Flow counts sum every thread's cell: exact once the allocating threads
// are quiescent, a snapshot while they run.
Stats GetStats();
// Zeroes the flow counters (between benchmark repetitions / tests) by taking
// the current sums as the new zero point, which is safe while other threads
// are alive. Slabs and free lists are untouched, so slabs/slab_bytes —
// gauges of reserved memory — keep their values.
void ResetStats();

}  // namespace genealog::pool

#endif  // GENEALOG_COMMON_TUPLE_POOL_H_
