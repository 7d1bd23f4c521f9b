#include "workloads.h"

#include "common/rng.h"
#include "common/wall_clock.h"
#include "core/instrumentation.h"

namespace perfbench {
namespace {

using genealog::ProvenanceMode;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"sg_q4_gl_intra", ProvenanceMode::kGenealog, false, false, 125'000, 1,
       8},
      {"sg_q4_np_intra", ProvenanceMode::kNone, false, false, 125'000, 1, 8},
      {"lr_q1_gl_dist", ProvenanceMode::kGenealog, true, true, 800'000, 12,
       12},
  };
  return specs;
}

// Smart grid: 200 meters x 15 days = 72k readings per lap, short enough for
// a paced run of one lap to fit between bursts of host load. Q4's latency
// depends on how many alerts arrive together at each midnight and on which
// meters raise them, so instead of the generator's per-meter-day coin flips
// every day but the last gets exactly kAnomaliesPerDay faulty meters, drawn
// from the seed (see below): each reads zero for the day and compensates
// with a spike at the next midnight, the generator's own anomaly shape. That is 20x the paper's rate, so a paced
// run of one lap yields hundreds of alerts (latency samples), and every
// seed yields the same number: two alerts per anomaly (the zero day, then
// the spiked day), minus the second alert of the last planted day, whose
// next midnight falls outside the lap.
constexpr int kMeters = 200;
constexpr int kDays = 15;
constexpr int kAnomaliesPerDay = 20;
constexpr int kBlackoutMeters = 8;

genealog::sg::SmartGridData MakeSmartGrid(uint64_t seed) {
  genealog::sg::SmartGridConfig config;
  config.n_meters = kMeters;
  config.n_days = kDays;
  config.blackout_probability = 0.1;
  config.blackout_meters = kBlackoutMeters;
  config.anomaly_probability = 0;
  config.seed = seed;
  genealog::sg::SmartGridData data = genealog::sg::GenerateSmartGrid(config);

  // Readings are sorted by ts and, within an hour, by meter.
  auto reading = [&data](int64_t ts, int meter) -> genealog::sg::MeterReading& {
    return *data.readings[static_cast<size_t>(ts * kMeters + meter)];
  };
  genealog::SplitMix64 rng(seed ^ 0x5eed'a110'cafe'f00dULL);
  std::vector<int> last_day(kMeters, -2);
  constexpr int kEligible = kMeters - kBlackoutMeters;
  for (int day = 0; day + 1 < kDays; ++day) {
    // One faulty meter per day in each of kAnomaliesPerDay equal ranges of
    // the meters that are not blacked out. A meter's place within the hour
    // sets how long its alert waits for event time to pass, so the ranges
    // give every seed the same spread of waits, and so the same latency.
    for (int k = 0; k < kAnomaliesPerDay; ++k) {
      const int lo = kBlackoutMeters + k * kEligible / kAnomaliesPerDay;
      const int hi = kBlackoutMeters + (k + 1) * kEligible / kAnomaliesPerDay;
      // A meter faulty the day before (whose spike would cancel the new
      // zero day) is skipped; at most one in the range was.
      int m = 0;
      do {
        m = static_cast<int>(rng.UniformInt(lo, hi - 1));
      } while (last_day[m] >= day - 1);
      last_day[m] = day;
      for (int hour = 0; hour < 24; ++hour) {
        reading(day * 24 + hour, m).cons = 0;
      }
      reading((day + 1) * 24, m).cons = config.anomaly_spike;
      data.planted_anomalies.emplace_back(m, day);
    }
  }
  return data;
}

// Linear Road: 1000 cars reporting every 30 s for an hour = 120k reports
// per lap, with the default bench's breakdown and accident rates.
genealog::lr::LinearRoadData MakeLinearRoad(uint64_t seed) {
  genealog::lr::LinearRoadConfig config;
  config.n_cars = 1000;
  config.duration_s = 3600;
  config.stop_probability = 0.002;
  config.accident_probability = 0.01;
  config.seed = seed;
  return genealog::lr::GenerateLinearRoad(config);
}

template <typename T>
double TimeEmit(const std::vector<genealog::IntrusivePtr<T>>& data,
                ProvenanceMode mode) {
  const int64_t start = genealog::NowNanos();
  uint64_t id = 0;
  for (const auto& d : data) {
    genealog::TuplePtr t = genealog::MakeTuple<T>(*d);
    t->id = ++id;
    t->stimulus = start;
    genealog::InstrumentSource(mode, *t);
  }
  const int64_t elapsed = genealog::NowNanos() - start;
  return data.empty() ? 0.0
                      : static_cast<double>(elapsed) /
                            static_cast<double>(data.size());
}

template <typename T>
std::vector<genealog::TuplePtr> Copies(
    const std::vector<genealog::IntrusivePtr<T>>& data) {
  std::vector<genealog::TuplePtr> out;
  out.reserve(data.size());
  uint64_t id = 0;
  for (const auto& d : data) {
    genealog::TuplePtr t = genealog::MakeTuple<T>(*d);
    t->id = ++id;
    genealog::InstrumentSource(ProvenanceMode::kGenealog, *t);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

// Replays are separated by an event-time gap at least as wide as every
// window of the query and a whole number of window advances, so no window,
// join or alert spans two laps: the output of N laps is the output of one
// lap repeated with shifted timestamps (the reference relies on this and
// checks it).
Workload::Workload(const WorkloadSpec& spec, uint64_t seed) : spec_(spec) {
  if (spec.linear_road) {
    lr_ = MakeLinearRoad(seed);
    lap_shift_ = 3600 + genealog::queries::kQ1WindowSize;
  } else {
    sg_ = MakeSmartGrid(seed);
    lap_shift_ = (kDays + 1) * genealog::queries::kDayHours;
  }
}

size_t Workload::lap_tuples() const {
  return spec_.linear_road ? lr_.reports.size() : sg_.readings.size();
}

genealog::queries::BuiltQuery Workload::Build(
    genealog::queries::QueryBuildOptions options, int laps) const {
  return BuildAs(std::move(options), laps, spec_.mode, spec_.distributed);
}

genealog::queries::BuiltQuery Workload::BuildAs(
    genealog::queries::QueryBuildOptions options, int laps,
    ProvenanceMode mode, bool distributed) const {
  options.mode = mode;
  options.distributed = distributed;
  options.source.replays = laps;
  options.source.replay_ts_shift = lap_shift_;
  return spec_.linear_road ? genealog::queries::BuildQ1(lr_, std::move(options))
                           : genealog::queries::BuildQ4(sg_, std::move(options));
}

double Workload::TimeEmitNs(ProvenanceMode mode) const {
  return spec_.linear_road ? TimeEmit(lr_.reports, mode)
                           : TimeEmit(sg_.readings, mode);
}

std::vector<genealog::TuplePtr> Workload::InstrumentedCopies() const {
  return spec_.linear_road ? Copies(lr_.reports) : Copies(sg_.readings);
}

}  // namespace perfbench
