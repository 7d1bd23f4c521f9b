// Output capture and the reference comparison behind the benchmark's error
// count.
//
// Every measured run records its sink tuples and provenance records through
// the public sink_consumer / provenance_consumer hooks. Tuples are keyed by
// type, timestamp and serialized payload — never by id, which changes with
// every build, nor by stimulus, which is a wall-clock read.
//
// The recording is kept small so the checker barely shows in the process's
// peak RSS: each key is stored as a 64-bit digest, and its timestamp is
// folded into (lap, ts within the lap), so one lap's reference stands for
// every lap of a run.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <compare>
#include <cstdint>
#include <mutex>
#include <vector>

#include "genealog/provenance_record.h"
#include "queries/common.h"

namespace perfbench {

// 64-bit digest of a tuple's canonical key: type tag, `ts` and payload bytes.
uint64_t TupleDigest(const genealog::Tuple& t, int64_t ts);

// One sink result: its lap and the digest of its key with the timestamp
// taken relative to that lap.
struct SinkEntry {
  int64_t lap = 0;
  uint64_t key = 0;
  auto operator<=>(const SinkEntry&) const = default;
};

// One provenance record: the derived tuple as a SinkEntry plus a digest of
// its sorted origin keys, each origin's timestamp taken relative to the
// derived tuple's lap (so an origin from another lap changes the digest).
struct RecordEntry {
  int64_t lap = 0;
  uint64_t derived = 0;
  uint64_t origins = 0;
  auto operator<=>(const RecordEntry&) const = default;
};

// The observable output of one run, sorted so two runs compare as multisets.
struct RunOutput {
  std::vector<SinkEntry> sink;
  std::vector<RecordEntry> records;
};

// Collects one run's output. The sink and provenance consumers run on
// different node threads, so each list has its own lock.
class Recorder {
 public:
  // `lap_shift` is the timestamp distance between the input's replays.
  explicit Recorder(int64_t lap_shift) : lap_shift_(lap_shift) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Points the build options' consumers at this recorder, which must outlive
  // the query built from them.
  void Attach(genealog::queries::QueryBuildOptions& options);

  void OnSink(const genealog::TuplePtr& t);
  void OnRecord(const genealog::ProvenanceRecord& r);

  // The sorted output; call after the run has finished.
  RunOutput Take();

 private:
  int64_t LapOf(int64_t ts) const;

  int64_t lap_shift_;
  std::mutex sink_mu_;
  std::vector<SinkEntry> sink_;
  std::mutex records_mu_;
  std::vector<RecordEntry> records_;
};

struct CheckResult {
  uint64_t reference = 0;         // reference sink results
  uint64_t missing = 0;           // reference results the run lacks
  uint64_t extra = 0;             // run results the reference lacks
  uint64_t wrong_provenance = 0;  // records without an exact reference match

  uint64_t errors() const { return missing + extra + wrong_provenance; }
  double error_rate() const {
    return reference == 0 ? (errors() == 0 ? 0.0 : 1.0)
                          : static_cast<double>(errors()) /
                                static_cast<double>(reference);
  }
};

// Compares a run of `laps` replays with the reference output of one lap,
// which every lap of the run must repeat. Provenance is compared only when
// `check_provenance` (runs without provenance produce no records).
CheckResult Compare(const RunOutput& one_lap, int laps, const RunOutput& run,
                    bool check_provenance);

// True when every sink result has exactly one provenance record and vice
// versa — the shape a reference must have before it is trusted.
bool RecordsCoverSink(const RunOutput& output);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
