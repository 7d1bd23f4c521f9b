// The benchmark's own tests: the checker behind the error count is not
// vacuous, and the percentile helper refuses to report a tail it has no
// samples for. Exits non-zero on the first failure.
//
//   perfbench_selftest
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check.h"
#include "queries/queries.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

// Records a run of `laps` replays of the workload. With `tamper`, the
// first sink result is dropped before it reaches the recorder and the
// second provenance record loses one origin.
RunOutput Record(const Workload& workload, int laps, bool tamper) {
  Recorder recorder(workload.lap_shift());
  genealog::queries::QueryBuildOptions options;
  recorder.Attach(options);
  if (tamper) {
    options.sink_consumer = [&recorder,
                             n = 0](const genealog::TuplePtr& t) mutable {
      if (n++ > 0) recorder.OnSink(t);
    };
    options.provenance_consumer =
        [&recorder, n = 0](const genealog::ProvenanceRecord& r) mutable {
          genealog::ProvenanceRecord altered = r;
          if (n++ == 1 && !altered.origins.empty()) altered.origins.pop_back();
          recorder.OnRecord(altered);
        };
  }
  genealog::queries::BuiltQuery q = workload.Build(std::move(options), laps);
  q.Run();
  return recorder.Take();
}

// A recorded run of a small Q4 GL job, with one sink result dropped and one
// provenance set altered, must count errors against its own unaltered
// recording; the unaltered runs of one and two laps must match it.
void CheckerCountsDroppedAndAlteredResults() {
  const WorkloadSpec* spec = FindWorkload("sg_q4_gl_intra");
  Expect(spec != nullptr, "sg_q4_gl_intra exists");
  if (spec == nullptr) return;
  const Workload workload(*spec, /*seed=*/7);
  const RunOutput reference = Record(workload, 1, false);
  Expect(reference.sink.size() >= 2, "the recorded run has sink results");
  Expect(RecordsCoverSink(reference), "one record per sink result");
  if (reference.sink.size() < 2) return;

  Expect(Compare(reference, 1, reference, true).errors() == 0,
         "a run matches itself");
  const CheckResult two =
      Compare(reference, 2, Record(workload, 2, false), true);
  Expect(two.errors() == 0 && two.reference == 2 * reference.sink.size(),
         "a two-lap run repeats the one-lap reference");

  const CheckResult t = Compare(reference, 1, Record(workload, 1, true), true);
  Expect(t.missing == 1 && t.extra == 0, "a dropped result is missing");
  Expect(t.wrong_provenance == 1, "an altered provenance set is wrong");
  Expect(t.errors() == 2 && t.error_rate() > 0,
         "dropped and altered together give error_rate > 0");

  RunOutput altered = reference;
  altered.records[1].origins ^= 1;
  std::sort(altered.records.begin(), altered.records.end());
  Expect(Compare(reference, 1, altered, false).errors() == 0,
         "provenance is ignored when not checked");

  RunOutput extra = reference;
  extra.sink.push_back(extra.sink.back());
  std::sort(extra.sink.begin(), extra.sink.end());
  Expect(Compare(reference, 1, extra, false).extra == 1,
         "a duplicated result is extra");

  // A result repeated in the wrong lap is both extra there and missing from
  // its own.
  RunOutput moved = Record(workload, 2, false);
  moved.sink.back().lap = 0;
  std::sort(moved.sink.begin(), moved.sink.end());
  const CheckResult m = Compare(reference, 2, moved, false);
  Expect(m.missing == 1 && m.extra == 1, "a result in the wrong lap");
}

void PercentileNeedsTenSamplesBeyond() {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  // 100 samples: p99 is the 99th value with one sample beyond it.
  const Percentile few = TailPercentile(samples, 99);
  Expect(!few.value.has_value(), "p99 of 100 samples is null");
  Expect(few.samples == 100 && few.beyond == 1, "p99 reports its count");

  for (int i = 101; i <= 1100; ++i) samples.push_back(i);
  const Percentile enough = TailPercentile(samples, 99);
  Expect(enough.value.has_value() && *enough.value == 1089,
         "p99 of 1100 samples is the 1089th");
  Expect(enough.beyond == 11, "11 samples lie beyond it");

  const Percentile none = TailPercentile({}, 50);
  Expect(!none.value.has_value() && none.samples == 0, "no samples, no p50");

  const Percentile median = TailPercentile(samples, 50);
  Expect(median.value.has_value() && *median.value == 550, "p50 of 1..1100");
  // Across runs: the lowest of per-run percentiles, null when any run has
  // too few samples beyond its own.
  std::vector<double> big(1100);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i + 1);
  std::vector<double> shifted = big;
  for (double& v : shifted) v += 100;
  const Percentile runs = LowestOfRunPercentiles({shifted, big, shifted}, 99);
  Expect(runs.value.has_value() && *runs.value == 1089 &&
             runs.samples == 3300 && runs.beyond == 11,
         "lowest of per-run p99");
  std::vector<double> small(500, 1.0);
  const Percentile short_run = LowestOfRunPercentiles({big, small}, 99);
  Expect(!short_run.value.has_value() && short_run.samples == 1600 &&
             short_run.beyond == 5,
         "a run with a short tail makes the p99 null");
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "Median");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::CheckerCountsDroppedAndAlteredResults();
  perfbench::PercentileNeedsTenSamplesBeyond();
  if (perfbench::failures > 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
