#include "check.h"

#include <algorithm>
#include <iterator>

#include "common/serialize.h"

namespace perfbench {
namespace {

// FNV-1a over `n` bytes, continuing from `h`.
uint64_t Fnv1a(const uint8_t* data, size_t n,
               uint64_t h = 0xcbf29ce484222325ULL) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Size of the multiset difference a \ b of two sorted vectors.
template <typename T>
uint64_t MissingFrom(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> diff;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(diff));
  return diff.size();
}

// `one_lap` repeated for laps 0..laps-1, sorted.
template <typename T>
std::vector<T> Repeat(const std::vector<T>& one_lap, int laps) {
  std::vector<T> out;
  out.reserve(one_lap.size() * static_cast<size_t>(std::max(laps, 0)));
  for (int lap = 0; lap < laps; ++lap) {
    for (T e : one_lap) {
      e.lap += lap;
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

uint64_t TupleDigest(const genealog::Tuple& t, int64_t ts) {
  genealog::ByteWriter w;
  w.PutU16(t.type_tag());
  w.PutI64(ts);
  t.SerializePayload(w);
  return Fnv1a(w.bytes().data(), w.size());
}

int64_t Recorder::LapOf(int64_t ts) const {
  if (lap_shift_ <= 0) return 0;
  const int64_t lap = ts / lap_shift_;
  return ts % lap_shift_ < 0 ? lap - 1 : lap;  // floor, for negative ts too
}

void Recorder::Attach(genealog::queries::QueryBuildOptions& options) {
  options.sink_consumer = [this](const genealog::TuplePtr& t) { OnSink(t); };
  options.provenance_consumer = [this](const genealog::ProvenanceRecord& r) {
    OnRecord(r);
  };
}

void Recorder::OnSink(const genealog::TuplePtr& t) {
  const int64_t lap = LapOf(t->ts);
  const SinkEntry e{lap, TupleDigest(*t, t->ts - lap * lap_shift_)};
  std::lock_guard lock(sink_mu_);
  sink_.push_back(e);
}

void Recorder::OnRecord(const genealog::ProvenanceRecord& r) {
  const int64_t lap = LapOf(r.derived_ts);
  const int64_t base = lap * lap_shift_;
  std::vector<uint64_t> origins;
  origins.reserve(r.origins.size());
  for (const genealog::TuplePtr& o : r.origins) {
    origins.push_back(TupleDigest(*o, o->ts - base));
  }
  std::sort(origins.begin(), origins.end());
  const RecordEntry e{
      lap, TupleDigest(*r.derived, r.derived_ts - base),
      Fnv1a(reinterpret_cast<const uint8_t*>(origins.data()),
            origins.size() * sizeof(uint64_t))};
  std::lock_guard lock(records_mu_);
  records_.push_back(e);
}

RunOutput Recorder::Take() {
  RunOutput out;
  {
    std::lock_guard lock(sink_mu_);
    out.sink = std::move(sink_);
    sink_.clear();
  }
  {
    std::lock_guard lock(records_mu_);
    out.records = std::move(records_);
    records_.clear();
  }
  std::sort(out.sink.begin(), out.sink.end());
  std::sort(out.records.begin(), out.records.end());
  return out;
}

CheckResult Compare(const RunOutput& one_lap, int laps, const RunOutput& run,
                    bool check_provenance) {
  CheckResult result;
  const std::vector<SinkEntry> sink = Repeat(one_lap.sink, laps);
  result.reference = sink.size();
  result.missing = MissingFrom(sink, run.sink);
  result.extra = MissingFrom(run.sink, sink);
  if (check_provenance) {
    const std::vector<RecordEntry> records = Repeat(one_lap.records, laps);
    result.wrong_provenance = std::max(MissingFrom(records, run.records),
                                       MissingFrom(run.records, records));
  }
  return result;
}

bool RecordsCoverSink(const RunOutput& output) {
  std::vector<SinkEntry> derived;
  derived.reserve(output.records.size());
  for (const RecordEntry& r : output.records) {
    derived.push_back({r.lap, r.derived});
  }
  std::sort(derived.begin(), derived.end());
  return derived == output.sink;
}

}  // namespace perfbench
