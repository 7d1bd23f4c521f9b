#include "common/thread_counter.h"

#include <algorithm>

namespace genealog::thread_counter_internal {

Cell* Registry::Attach() {
  Cell* cell = new Cell;
  std::lock_guard lock(mu_);
  cells_.push_back(cell);
  return cell;
}

void Registry::Detach(Cell* cell) {
  {
    std::lock_guard lock(mu_);
    exited_.fetch_add(cell->value.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    cells_.erase(std::find(cells_.begin(), cells_.end(), cell));
  }
  delete cell;
}

int64_t Registry::RawSumLocked() const {
  int64_t sum = exited_.load(std::memory_order_relaxed);
  for (const Cell* cell : cells_) {
    sum += cell->value.load(std::memory_order_relaxed);
  }
  return sum;
}

int64_t Registry::Sum() const {
  std::lock_guard lock(mu_);
  return RawSumLocked() - baseline_;
}

void Registry::Rebase() {
  std::lock_guard lock(mu_);
  baseline_ = RawSumLocked();
}

}  // namespace genealog::thread_counter_internal
