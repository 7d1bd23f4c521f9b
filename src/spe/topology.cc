#include "spe/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/memory_accounting.h"
#include "spe/scheduler.h"

namespace genealog {

Topology::Topology(int instance_id, ProvenanceMode mode)
    : instance_id_(instance_id), mode_(mode) {
  if (instance_id < 0 || instance_id >= mem::kMaxInstances) {
    throw std::logic_error(
        "Topology: instance id " + std::to_string(instance_id) +
        " is outside [0, " + std::to_string(mem::kMaxInstances) +
        ") (mem::kMaxInstances, the memory-accounting limit)");
  }
}

size_t Topology::Connect(Node* from, Node* to, size_t capacity,
                         size_t batch_size) {
  Endpoint e = to->AddInput(capacity);
  e.set_batch_size(batch_size == 0 ? default_batch_size_ : batch_size);
  e.set_adaptive(adaptive_batch_);
  const size_t port = e.port();
  from->AddOutput(std::move(e));
  return port;
}

void Topology::AbortAll() {
  for (auto& node : nodes_) node->AbortQueues();
  for (Abortable* resource : abortables_) resource->Abort();
}

Runner::Runner(std::vector<Topology*> topologies)
    : topologies_(std::move(topologies)) {}

Runner::~Runner() {
  if (started_ && !joined_) {
    Abort();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    if (pool_ != nullptr) pool_->Join();
  }
}

void Runner::RecordFailure(std::exception_ptr error) {
  {
    std::lock_guard lock(error_mu_);
    if (first_error_ == nullptr) first_error_ = error;
  }
  failed_.store(true, std::memory_order_release);
  Abort();
}

void Runner::Start() {
  started_ = true;

  // The pool runs only when every topology asked for it.
  scheduler_ = topologies_.empty() ? SchedulerMode::kThreadPerNode
                                   : SchedulerMode::kPool;
  for (Topology* topology : topologies_) {
    if (topology->scheduler() != SchedulerMode::kPool) {
      scheduler_ = SchedulerMode::kThreadPerNode;
      break;
    }
  }

  auto spawn_thread = [this](Node* raw) {
    threads_.emplace_back([this, raw] {
      mem::SetCurrentInstance(raw->instance_id());
      try {
        raw->Run();
      } catch (...) {
        RecordFailure(std::current_exception());
      }
    });
  };

  if (scheduler_ == SchedulerMode::kThreadPerNode) {
    for (Topology* topology : topologies_) {
      for (auto& node : topology->nodes()) spawn_thread(node.get());
    }
    return;
  }

  // Pool mode: schedulable nodes join the shared pool under their topology's
  // fairness bucket; nodes that block on non-queue resources (network, rate
  // limiter clocks, unknown node types) keep dedicated threads.
  WorkerPoolOptions pool_options;
  for (Topology* topology : topologies_) {
    pool_options.workers = std::max(pool_options.workers, topology->workers());
  }
  pool_ = std::make_unique<WorkerPool>(pool_options);
  std::vector<Node*> pinned;
  for (uint32_t q = 0; q < topologies_.size(); ++q) {
    for (auto& node : topologies_[q]->nodes()) {
      if (node->NeedsDedicatedThread()) {
        pinned.push_back(node.get());
      } else {
        pool_->AddNode(node.get(), q);
      }
    }
  }
  // Start the pool (which attaches the edge signal hooks) before any pinned
  // node thread runs: a pinned producer's first Push may race the signal
  // attachment otherwise.
  pool_->Start([this](std::exception_ptr error) { RecordFailure(error); });
  for (Node* node : pinned) spawn_thread(node);
}

void Runner::Join() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  if (pool_ != nullptr) pool_->Join();
  joined_ = true;
  if (failed_.load(std::memory_order_acquire)) {
    std::lock_guard lock(error_mu_);
    if (first_error_ != nullptr) std::rethrow_exception(first_error_);
  }
}

void Runner::Abort() {
  for (Topology* topology : topologies_) topology->AbortAll();
  if (pool_ != nullptr) pool_->Kick();
}

void RunToCompletion(Topology& topology) {
  Runner runner({&topology});
  runner.Start();
  runner.Join();
}

}  // namespace genealog
