// The four evaluation queries of §7.
//
//  Q1 — Linear Road, broken-down car detection (Figure 1).
//  Q2 — Linear Road, accident detection (Figure 9).
//  Q3 — Smart grid, long-term blackout detection (Figure 10).
//  Q4 — Smart grid, midnight-anomaly detection (Figure 11).
//
// Each builder records the query's logical plan per the paper's figures on
// the fluent dataflow builder (spe/dataflow.h): the operator chain plus, when
// `options.distributed`, the paper's split as a single At(2) deployment cut.
// Dataflow::Build weaves the SU/MU/provenance-sink machinery from
// `options.mode` (see queries/common.h).
#ifndef GENEALOG_QUERIES_QUERIES_H_
#define GENEALOG_QUERIES_QUERIES_H_

#include "lr/linear_road.h"
#include "queries/common.h"
#include "smartgrid/smartgrid.h"
#include "spe/dataflow.h"

namespace genealog::queries {

// Fixed query parameters from §7.
inline constexpr int64_t kQ1WindowSize = 120;  // seconds
inline constexpr int64_t kQ1WindowAdvance = 30;
inline constexpr int64_t kQ1StopCount = 4;
inline constexpr int64_t kQ2WindowSize = 30;
inline constexpr int64_t kQ2WindowAdvance = 30;
inline constexpr int64_t kDayHours = 24;
inline constexpr int64_t kQ3ZeroMeterThreshold = 7;   // alert if count > 7
inline constexpr int64_t kQ4JoinWindowHours = 1;
inline constexpr double kQ4DiffThreshold = 200.0;

BuiltQuery BuildQ1(const lr::LinearRoadData& data, QueryBuildOptions options);
BuiltQuery BuildQ2(const lr::LinearRoadData& data, QueryBuildOptions options);
BuiltQuery BuildQ3(const sg::SmartGridData& data, QueryBuildOptions options);
BuiltQuery BuildQ4(const sg::SmartGridData& data, QueryBuildOptions options);

// Translates the query build options into the dataflow builder's options;
// deployment cuts and sink consumers stay per-query.
inline DataflowOptions ToDataflowOptions(const QueryBuildOptions& options) {
  DataflowOptions opts;
  opts.mode = options.mode;
  opts.engine = options.engine();
  opts.provenance_file = options.provenance_file;
  opts.provenance_consumer = options.provenance_consumer;
  opts.baseline_oracle_eviction = options.baseline_oracle_eviction;
  return opts;
}

}  // namespace genealog::queries

#endif  // GENEALOG_QUERIES_QUERIES_H_
