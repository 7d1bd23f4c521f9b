// The benchmark workloads: a seeded dataset, the query built on it, and the
// fixed pacing rate of the open-loop phase.
//
//   sg_q4_gl_intra  Q4 (Figure 11) under GeneaLog in one instance
//   sg_q4_np_intra  the same job and input with provenance off
//   lr_q1_gl_dist   Q1 (Figure 1) under GeneaLog, 3 instances joined by
//                   in-memory serializing channels (Figure 7)
//
// The generator is the in-process VectorSourceNode replaying the dataset:
// one thread, no connections. Replays shift timestamps by the dataset's
// span plus a gap, so a run of `laps` replays is one longer, still sorted
// stream whose laps produce the same results.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "queries/queries.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  genealog::ProvenanceMode mode = genealog::ProvenanceMode::kNone;
  bool distributed = false;
  bool linear_road = false;  // Q1 on Linear Road, else Q4 on smart grid
  // Open-loop rate of the paced phase; fixed, so a faster engine is
  // measured at the same rate. Each is the rate at which the workload's
  // latency was steadiest from run to run on the engine the benchmark was
  // defined on: Q4 at a tenth of its saturated throughput (at a fifth its
  // p50 rose half again as much under host steal, and its accounted-memory
  // peak took in the queues a stall builds up), Q1 distributed at 40%
  // (lower rates stretch the wait for event time to close its windows).
  double paced_rate_tps = 0;
  // Laps per run of each phase. Q4's p50 is nearly the same in every paced
  // run, so its paced runs are short (one lap, about 0.6 s) and many of them
  // fall between bursts of host load; Q1's p50 varies from lap to lap with
  // where its accidents fall, so its paced runs are longer. A saturated run
  // lasts long enough (about 0.5 s) to dwarf thread start-up and drain.
  int paced_run_laps = 1;
  int saturated_run_laps = 1;
};

// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

class Workload {
 public:
  Workload(const WorkloadSpec& spec, uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  size_t lap_tuples() const;
  // Timestamp shift between replays: the dataset's logical span plus a gap
  // no window crosses.
  int64_t lap_shift() const { return lap_shift_; }

  // Builds the workload's query over `laps` replays of the dataset. The
  // caller sets the engine knobs, consumers and source rate on `options`;
  // mode and deployment come from the spec unless `mode` overrides them
  // (the reference runs the same input intra-process, in GL and BL).
  genealog::queries::BuiltQuery Build(
      genealog::queries::QueryBuildOptions options, int laps) const;
  genealog::queries::BuiltQuery BuildAs(
      genealog::queries::QueryBuildOptions options, int laps,
      genealog::ProvenanceMode mode, bool distributed) const;

  // Nanoseconds per tuple of creating and instrumenting each source tuple
  // the way the source does (MakeTuple + InstrumentSource), over one lap.
  double TimeEmitNs(genealog::ProvenanceMode mode) const;

  // Fresh GL-instrumented copies of one lap's source tuples, for the wire
  // codec timings.
  std::vector<genealog::TuplePtr> InstrumentedCopies() const;

 private:
  const WorkloadSpec& spec_;
  genealog::sg::SmartGridData sg_;
  genealog::lr::LinearRoadData lr_;
  int64_t lap_shift_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
