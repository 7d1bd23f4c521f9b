// Sink operator (§2): receives the sink tuples produced by the query.
//
// Records the paper's per-sink metrics: tuple count and latency, where
// latency is NowNanos() - stimulus, i.e. the time between the reception of
// the latest contributing source tuple (stimuli propagate as max() through
// every operator) and the production of the sink tuple.
#ifndef GENEALOG_SPE_SINK_H_
#define GENEALOG_SPE_SINK_H_

#include <functional>
#include <mutex>
#include <utility>

#include "common/stats.h"
#include "common/wall_clock.h"
#include "spe/node.h"

namespace genealog {

class SinkNode final : public SingleInputNode {
 public:
  using Consumer = std::function<void(const TuplePtr&)>;

  explicit SinkNode(std::string name, Consumer consumer = nullptr)
      : SingleInputNode(std::move(name)), consumer_(std::move(consumer)) {}

  // Latency samples before this wall-clock instant are discarded (warm-up,
  // matching the paper's "statistics are taken after a warm-up phase").
  void set_record_after_ns(int64_t ns) {
    record_after_ns_.store(ns, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  double mean_latency_ms() const {
    std::lock_guard lock(mu_);
    return latency_ms_.mean();
  }

  double latency_percentile_ms(double pct) const {
    std::lock_guard lock(mu_);
    return latency_ms_.percentile(pct);
  }

  uint64_t latency_samples() const {
    std::lock_guard lock(mu_);
    return latency_ms_.count();
  }

  // A copy of the latency accumulator, for merging several sinks' samples
  // into one distribution (SampleStats::Merge).
  SampleStats latency_stats() const {
    std::lock_guard lock(mu_);
    return latency_ms_;
  }

 protected:
  void OnTuple(TuplePtr t) override {
    count_.fetch_add(1, std::memory_order_relaxed);
    const int64_t now = NowNanos();
    if (now >= record_after_ns_.load(std::memory_order_relaxed) &&
        t->stimulus > 0) {
      std::lock_guard lock(mu_);
      latency_ms_.Add(NanosToMillis(now - t->stimulus));
    }
    if (consumer_ != nullptr) {
      consumer_(t);
    }
    // `t` goes out of scope here: once nothing downstream references the sink
    // tuple, its whole contribution graph becomes reclaimable (challenge C2).
  }

 private:
  Consumer consumer_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> record_after_ns_{0};
  mutable std::mutex mu_;
  SampleStats latency_ms_;
};

}  // namespace genealog

#endif  // GENEALOG_SPE_SINK_H_
