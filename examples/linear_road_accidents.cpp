// Linear Road accident detection (the paper's Q2, Figure 9) written on the
// fluent dataflow API, with fine-grained provenance: every accident alert is
// traced back to the position reports of the cars involved.
//
// The whole query is one typed operator chain; setting
// ProvenanceMode::kGenealog makes Build() weave the SU + provenance sink in
// automatically (src/queries/q2.cc builds the same query, with the paper's
// distributed split as one At(2) cut).
//
//   $ ./build/examples/linear_road_accidents [n_cars] [duration_s]
#include <cstdio>
#include <cstdlib>
#include <set>

#include "lr/linear_road.h"
#include "spe/dataflow.h"

using namespace genealog;

int main(int argc, char** argv) {
  lr::LinearRoadConfig config;
  config.n_cars = argc > 1 ? std::atoi(argv[1]) : 80;
  config.duration_s = argc > 2 ? std::atol(argv[2]) : 3600;
  config.stop_probability = 0.01;
  config.accident_probability = 0.05;
  config.seed = 2024;

  std::printf("Simulating %d cars for %lld s (position report every %lld s)\n",
              config.n_cars, static_cast<long long>(config.duration_s),
              static_cast<long long>(config.report_period_s));
  lr::LinearRoadData data = lr::GenerateLinearRoad(config);
  std::printf("generated %zu position reports, %zu planted breakdowns\n\n",
              data.reports.size(), data.planted_stops.size());

  constexpr int64_t kStopWs = 120, kStopWa = 30;  // Q1 window (§7)
  constexpr int64_t kAccidentWs = 30;             // Q2 tumbling window

  DataflowOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.provenance_consumer = [](const ProvenanceRecord& record) {
    std::printf("  provenance (%zu position reports):\n",
                record.origins.size());
    for (const TuplePtr& origin : record.origins) {
      const auto& report = static_cast<const lr::PositionReport&>(*origin);
      std::printf("    ts=%-6lld car=%-3lld speed=%.0f pos=%lld\n",
                  static_cast<long long>(origin->ts),
                  static_cast<long long>(report.car_id), report.speed,
                  static_cast<long long>(report.pos));
    }
  };

  Dataflow df(std::move(options));
  df.Source<lr::PositionReport>("source", data.reports)
      .Filter("filter.speed0",
              [](const lr::PositionReport& t) { return t.speed == 0.0; })
      .Aggregate<lr::StoppedCarStats>(
          "agg.stopped", AggregateOptions{kStopWs, kStopWa},
          [](const lr::PositionReport& t) { return t.car_id; },
          [](const WindowView<lr::PositionReport, int64_t>& w) {
            std::set<int64_t> positions;
            for (const auto& t : w.tuples) positions.insert(t->pos);
            return MakeTuple<lr::StoppedCarStats>(
                0, w.key, static_cast<int64_t>(w.tuples.size()),
                static_cast<int64_t>(positions.size()), w.tuples.back()->pos);
          })
      .Filter("filter.stopped",
              [](const lr::StoppedCarStats& t) {
                return t.count == 4 && t.dist_pos == 1;
              })
      .Aggregate<lr::AccidentStats>(
          "agg.accidents", AggregateOptions{kAccidentWs, kAccidentWs},
          [](const lr::StoppedCarStats& t) { return t.last_pos; },
          [](const WindowView<lr::StoppedCarStats, int64_t>& w) {
            std::set<int64_t> cars;
            for (const auto& t : w.tuples) cars.insert(t->car_id);
            return MakeTuple<lr::AccidentStats>(
                0, w.key, static_cast<int64_t>(cars.size()));
          })
      .Filter("filter.accident",
              [](const lr::AccidentStats& t) { return t.count > 1; })
      .Sink("K", [](const TuplePtr& alert) {
        const auto& stats = static_cast<const lr::AccidentStats&>(*alert);
        std::printf(
            "ACCIDENT window=%lld..%lld position=%lld stopped_cars=%lld\n",
            static_cast<long long>(alert->ts),
            static_cast<long long>(alert->ts + kAccidentWs),
            static_cast<long long>(stats.pos),
            static_cast<long long>(stats.count));
      });
  BuiltQuery flow = df.Build();
  flow.Run();

  std::printf("\nprocessed %llu reports, %llu accident alerts, "
              "%llu provenance records (avg %.1f reports per alert)\n",
              static_cast<unsigned long long>(flow.source->tuples_processed()),
              static_cast<unsigned long long>(flow.sink->count()),
              static_cast<unsigned long long>(flow.provenance_records()),
              flow.mean_origins_per_record());
  return 0;
}
