// Sum-on-read counters for paths that every operator thread bumps.
//
// A shared std::atomic counter costs each increment a read-modify-write on a
// cache line all writer threads fight over, and the tuple lifecycle (one
// MakeTuple and one release per tuple, on whichever threads the topology
// runs) would pay it per tuple. A ThreadCounter instead gives every thread
// its own cache-line-sized cell, written only by that thread with a relaxed
// load and store. Readers lock the counter's registry and sum the cells of
// live threads plus the total that exited threads folded in on their way
// out.
//
// A Sum() taken while writers run reads each cell at some instant, so it is
// a snapshot, not a linearizable value; once the writers are quiescent
// (joined, or parked behind a synchronization point) it is exact.
//
// Each `Tag` type names one process-wide counter:
//
//   struct PoolAllocsTag;
//   using PoolAllocs = ThreadCounter<PoolAllocsTag>;
//   PoolAllocs::Add(1);  ...  PoolAllocs::Sum();
#ifndef GENEALOG_COMMON_THREAD_COUNTER_H_
#define GENEALOG_COMMON_THREAD_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace genealog {
namespace thread_counter_internal {

// One thread's share of a counter. Cache-line aligned so neighbouring
// threads' cells never share a line.
struct alignas(64) Cell {
  std::atomic<int64_t> value{0};
};

// The cells of one counter. Leaked on purpose (see ThreadCounter::registry):
// thread-local destructors fold their cells in here, and on the main thread
// those may run after static destructors.
class Registry {
 public:
  Cell* Attach();
  // Folds the cell's value into the exited-thread total and frees it.
  void Detach(Cell* cell);
  // A thread whose cell is already detached (a later thread-local destructor
  // still counting) adds straight to the exited-thread total.
  void AddExited(int64_t delta) {
    exited_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Sum() const;
  void Rebase();

 private:
  int64_t RawSumLocked() const;

  mutable std::mutex mu_;
  std::vector<Cell*> cells_;        // guarded by mu_
  std::atomic<int64_t> exited_{0};  // folded-in cells of exited threads
  int64_t baseline_ = 0;            // guarded by mu_
};

}  // namespace thread_counter_internal

template <typename Tag>
class ThreadCounter {
 public:
  // Adds `delta` to the calling thread's cell: no read-modify-write, no
  // shared cache line. The first call on a thread registers its cell.
  static void Add(int64_t delta) noexcept {
    Cell* cell = tl_cell_;
    if (cell == nullptr || cell == Exited()) [[unlikely]] {
      AddSlow(delta);
      return;
    }
    cell->value.store(cell->value.load(std::memory_order_relaxed) + delta,
                      std::memory_order_relaxed);
  }

  // Every thread's contributions, minus the value at the last Rebase().
  static int64_t Sum() { return registry().Sum(); }

  // Makes the current total the zero point of later Sum()s. Unlike zeroing
  // the cells, this is safe while other threads are alive: they keep sole
  // ownership of their cells.
  static void Rebase() { registry().Rebase(); }

 private:
  using Cell = thread_counter_internal::Cell;
  using Registry = thread_counter_internal::Registry;

  // Detaches the thread's cell when the thread exits.
  struct ExitHook {
    ExitHook() = default;
    ExitHook(const ExitHook&) = delete;
    ExitHook& operator=(const ExitHook&) = delete;
    bool armed = false;
    ~ExitHook() {
      if (!armed) return;
      registry().Detach(tl_cell_);
      tl_cell_ = Exited();
    }
  };

  static Registry& registry() {
    static Registry* r = new Registry;
    return *r;
  }

  static Cell* Exited() { return reinterpret_cast<Cell*>(alignof(Cell)); }

  static void AddSlow(int64_t delta) noexcept {
    if (tl_cell_ == Exited()) {
      registry().AddExited(delta);
      return;
    }
    tl_cell_ = registry().Attach();
    exit_hook_.armed = true;
    tl_cell_->value.store(delta, std::memory_order_relaxed);
  }

  // Trivially destructible, so reading it on the hot path needs no
  // thread-local init guard and stays valid after ExitHook has run.
  inline static thread_local Cell* tl_cell_ = nullptr;
  inline static thread_local ExitHook exit_hook_;
};

}  // namespace genealog

#endif  // GENEALOG_COMMON_THREAD_COUNTER_H_
