// Every evaluation query, BuildQ{1..4} (spe/dataflow.h lowered by the
// genealog/instrument weaving), must reproduce a pinned golden output: one
// 64-bit digest of the emission-order sink stream and the canonical
// provenance bytes (see CanonicalProvenanceBytes in query_helpers.h for what
// must be masked and why) per query x {intra, distributed} x batch {1, 64}.
// The digests were recorded from the hand-wired deployment assembly this
// lowering replaced, so they pin the output to that independent reference
// at every sweep point: batch {1, 64} for every query — Q2–Q4's plans
// exercise what Q1 cannot (chained aggregates, window-end emission,
// Multiplex fan-out, Join). Distributed sweeps also run the raw and compact
// wire codecs. The physical plans are pinned
// too: instance, SU and channel counts per provenance mode and deployment.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "lr/linear_road.h"
#include "queries/query_helpers.h"
#include "smartgrid/smartgrid.h"

namespace genealog::queries {
namespace {

lr::LinearRoadData SmallLr() {
  lr::LinearRoadConfig config;
  config.n_cars = 30;
  config.duration_s = 1800;
  config.stop_probability = 0.03;
  config.seed = 17;
  return lr::GenerateLinearRoad(config);
}

lr::LinearRoadData AccidentLr() {
  lr::LinearRoadConfig config;
  config.n_cars = 50;
  config.duration_s = 2400;
  config.stop_probability = 0.02;
  config.accident_probability = 0.08;
  config.seed = 11;
  return lr::GenerateLinearRoad(config);
}

sg::SmartGridData SmallSg() {
  sg::SmartGridConfig config;
  config.n_meters = 25;
  config.n_days = 8;
  config.blackout_probability = 0.4;
  config.forced_blackout_days = {1, 4};
  config.blackout_meters = 9;
  config.anomaly_probability = 0.03;
  config.seed = 23;
  return sg::GenerateSmartGrid(config);
}

// Golden digests on the datasets above (RunArtifacts::Digest).
struct Golden {
  const char* query;
  bool distributed;
  size_t batch;
  uint64_t digest;
};
constexpr Golden kGoldens[] = {
    {"Q1", false, 1, 0x5dbebeb49f4e75e2},
    {"Q1", false, 64, 0x5dbebeb49f4e75e2},
    {"Q1", true, 1, 0x5dbebeb49f4e75e2},
    {"Q1", true, 64, 0x5dbebeb49f4e75e2},
    {"Q2", false, 1, 0xe67eea760c9436c0},
    {"Q2", false, 64, 0xe67eea760c9436c0},
    {"Q2", true, 1, 0xe67eea760c9436c0},
    {"Q2", true, 64, 0xe67eea760c9436c0},
    {"Q3", false, 1, 0x13856d78efd50b8f},
    {"Q3", false, 64, 0x13856d78efd50b8f},
    {"Q3", true, 1, 0x13856d78efd50b8f},
    {"Q3", true, 64, 0x13856d78efd50b8f},
    {"Q4", false, 1, 0x8e31179f8701ba05},
    {"Q4", false, 64, 0x8e31179f8701ba05},
    {"Q4", true, 1, 0x8e31179f8701ba05},
    {"Q4", true, 64, 0x8e31179f8701ba05},
};

uint64_t GoldenDigest(const std::string& query, bool distributed,
                      size_t batch) {
  for (const Golden& g : kGoldens) {
    if (query == g.query && distributed == g.distributed && batch == g.batch) {
      return g.digest;
    }
  }
  ADD_FAILURE() << "no golden digest for " << query;
  return 0;
}

// 64-bit FNV-1a.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct RunArtifacts {
  std::vector<std::string> ordered_sink;  // emission order
  std::vector<uint8_t> provenance;        // canonical file bytes
  uint64_t records = 0;

  // Each sink line followed by '\n', then the canonical provenance bytes.
  uint64_t Digest() const {
    uint64_t h = 14695981039346656037ull;
    for (const std::string& line : ordered_sink) {
      h = Fnv1a(h, line.data(), line.size());
      h = Fnv1a(h, "\n", 1);
    }
    return Fnv1a(h, provenance.data(), provenance.size());
  }
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

QueryBuildOptions MakeOptions(bool distributed, size_t batch,
                              const std::string& file,
                              std::vector<std::string>& sink_out,
                              WireCodec codec = WireCodec::kRaw) {
  QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.distributed = distributed;
  options.batch_size = batch;
  options.wire_codec = codec;
  options.provenance_file = file;
  options.sink_consumer = [&sink_out](const TuplePtr& t) {
    sink_out.push_back(std::to_string(t->ts) + "|" + t->DebugPayload());
  };
  return options;
}

template <typename Builder, typename Data>
RunArtifacts RunOne(Builder&& builder, const Data& data, bool distributed,
                    size_t batch, const std::string& path,
                    WireCodec codec = WireCodec::kRaw) {
  RunArtifacts out;
  BuiltQuery q = builder(
      data, MakeOptions(distributed, batch, path, out.ordered_sink, codec));
  q.Run();
  out.records = q.provenance_records();
  out.provenance = CanonicalProvenanceBytes(path);
  std::remove(path.c_str());
  return out;
}

// Checks one run against the golden digest of its (query, deployment,
// batch) cell.
void ExpectGolden(const RunArtifacts& run, const std::string& query,
                  bool distributed, size_t batch) {
  ASSERT_FALSE(run.ordered_sink.empty());
  ASSERT_GT(run.records, 0u);
  EXPECT_EQ(Hex(run.Digest()), Hex(GoldenDigest(query, distributed, batch)))
      << "sink stream or canonical provenance bytes diverged";
}

// The wire codec must be invisible: each codec in `codecs` must reproduce
// the digest recorded with raw channels. Intra sweeps pass only raw (no
// channels to encode).
template <typename Builder, typename Data>
void SweepGolden(const char* name, Builder builder, const Data& data,
                 bool distributed,
                 std::vector<WireCodec> codecs = {WireCodec::kRaw}) {
  const std::string path = ::testing::TempDir() + "/dfeq.bin";
  for (const size_t batch : {size_t{1}, size_t{64}}) {
    for (const WireCodec codec : codecs) {
      SCOPED_TRACE(std::string(name) + " batch " + std::to_string(batch) +
                   " codec " +
                   (codec == WireCodec::kCompact ? "compact" : "raw"));
      ExpectGolden(RunOne(builder, data, distributed, batch, path, codec),
                   name, distributed, batch);
    }
  }
}

TEST(DataflowEquivalenceTest, Q1GenealogIntra) {
  SweepGolden("Q1", BuildQ1, SmallLr(), /*distributed=*/false);
}

TEST(DataflowEquivalenceTest, Q1GenealogDistributed) {
  SweepGolden("Q1", BuildQ1, SmallLr(), /*distributed=*/true,
              {WireCodec::kRaw, WireCodec::kCompact});
}

TEST(DataflowEquivalenceTest, Q2GenealogIntra) {
  SweepGolden("Q2", BuildQ2, AccidentLr(), /*distributed=*/false);
}

TEST(DataflowEquivalenceTest, Q2GenealogDistributed) {
  SweepGolden("Q2", BuildQ2, AccidentLr(), /*distributed=*/true,
              {WireCodec::kRaw, WireCodec::kCompact});
}

TEST(DataflowEquivalenceTest, Q3GenealogIntra) {
  SweepGolden("Q3", BuildQ3, SmallSg(), /*distributed=*/false);
}

TEST(DataflowEquivalenceTest, Q3GenealogDistributed) {
  SweepGolden("Q3", BuildQ3, SmallSg(), /*distributed=*/true,
              {WireCodec::kRaw, WireCodec::kCompact});
}

TEST(DataflowEquivalenceTest, Q4GenealogIntra) {
  SweepGolden("Q4", BuildQ4, SmallSg(), /*distributed=*/false);
}

TEST(DataflowEquivalenceTest, Q4GenealogDistributed) {
  SweepGolden("Q4", BuildQ4, SmallSg(), /*distributed=*/true,
              {WireCodec::kRaw, WireCodec::kCompact});
}

// The key-partitioned lowering (`.KeyBy(car).Parallel(n)` inside BuildQ1
// when options.parallelism > 1) must be completely invisible at the sink and
// in the provenance file: for every shard count, scheduler and batch size,
// the run must reproduce the single-instance Q1 digest. This also re-checks
// batching/scheduler invariance through the partition -> replicas ->
// keyed-merge diamond.
TEST(DataflowEquivalenceTest, Q1ParallelMatchesSingleInstanceIntra) {
  const lr::LinearRoadData data = SmallLr();
  const std::string path = ::testing::TempDir() + "/dfeq_par.bin";
  for (const int shards : {1, 2, 4}) {
    for (const SchedulerMode scheduler :
         {SchedulerMode::kThreadPerNode, SchedulerMode::kPool}) {
      for (const size_t batch : {size_t{1}, size_t{64}}) {
        SCOPED_TRACE("shards " + std::to_string(shards) + " pool " +
                     std::to_string(scheduler == SchedulerMode::kPool) +
                     " batch " + std::to_string(batch));
        auto parallel_builder = [shards, scheduler](
                                    const lr::LinearRoadData& d,
                                    QueryBuildOptions options) {
          options.parallelism = shards;
          options.scheduler = scheduler;
          if (scheduler == SchedulerMode::kPool) options.workers = 3;
          return BuildQ1(d, std::move(options));
        };
        ExpectGolden(RunOne(parallel_builder, data, /*distributed=*/false,
                            batch, path),
                     "Q1", /*distributed=*/false, batch);
      }
    }
  }
}

// Same invariance across a deployment cut: the parallel stage lowers inside
// its instance and the distributed weaving (cut SUs, MU, provenance
// instance) composes with it unchanged.
TEST(DataflowEquivalenceTest, Q1ParallelMatchesSingleInstanceDistributed) {
  const lr::LinearRoadData data = SmallLr();
  const std::string path = ::testing::TempDir() + "/dfeq_pard.bin";
  for (const int shards : {2, 4}) {
    for (const size_t batch : {size_t{1}, size_t{64}}) {
      for (const WireCodec codec : {WireCodec::kRaw, WireCodec::kCompact}) {
        SCOPED_TRACE("shards " + std::to_string(shards) + " batch " +
                     std::to_string(batch) + " codec " +
                     (codec == WireCodec::kCompact ? "compact" : "raw"));
        auto parallel_builder = [shards](const lr::LinearRoadData& d,
                                         QueryBuildOptions options) {
          options.parallelism = shards;
          return BuildQ1(d, std::move(options));
        };
        ExpectGolden(RunOne(parallel_builder, data, /*distributed=*/true,
                            batch, path, codec),
                     "Q1", /*distributed=*/true, batch);
      }
    }
  }
}

// Pinned physical plan of one (mode, deployment) build, recorded alongside
// the golden digests.
struct Shape {
  int n_instances;
  size_t su_nodes;
  size_t channels;
};

// `shapes` in the order NP, GL, BL, each {intra, distributed}.
template <typename Builder, typename Data>
void CheckStructure(Builder builder, const Data& data,
                    int64_t total_window_span,
                    const std::array<Shape, 6>& shapes) {
  size_t row = 0;
  for (const ProvenanceMode mode :
       {ProvenanceMode::kNone, ProvenanceMode::kGenealog,
        ProvenanceMode::kBaseline}) {
    for (const bool distributed : {false, true}) {
      SCOPED_TRACE(std::string(ToString(mode)) +
                   (distributed ? " distributed" : " intra"));
      QueryBuildOptions options;
      options.mode = mode;
      options.distributed = distributed;
      const BuiltQuery q = builder(data, options);
      const Shape& want = shapes[row++];
      EXPECT_EQ(q.n_instances, want.n_instances);
      EXPECT_EQ(q.su_nodes.size(), want.su_nodes);
      EXPECT_EQ(q.channels.size(), want.channels);
      EXPECT_EQ(q.total_window_span, total_window_span);
    }
  }
}

// Q1–Q3 deliver one stream across the cut: GL distributed has the sink SU
// plus one cut SU, and channels data + cut U + sink U; BL distributed ships
// data, the annotated sink stream and the source copy.
constexpr std::array<Shape, 6> kOneStreamShapes = {{
    {1, 0, 0}, {2, 0, 1},  // NP
    {1, 1, 0}, {3, 2, 3},  // GL
    {1, 0, 0}, {3, 0, 3},  // BL
}};

TEST(DataflowEquivalenceTest, Q1StructurePinned) {
  CheckStructure(BuildQ1, SmallLr(), kQ1WindowSize, kOneStreamShapes);
}

TEST(DataflowEquivalenceTest, Q2StructurePinned) {
  CheckStructure(BuildQ2, AccidentLr(), kQ1WindowSize + kQ2WindowSize,
                 kOneStreamShapes);
}

TEST(DataflowEquivalenceTest, Q3StructurePinned) {
  CheckStructure(BuildQ3, SmallSg(), 2 * kDayHours, kOneStreamShapes);
}

// Q4 delivers two streams (daily sums, midnight readings) into the Join.
TEST(DataflowEquivalenceTest, Q4StructurePinned) {
  CheckStructure(BuildQ4, SmallSg(), kDayHours + kQ4JoinWindowHours,
                 {{
                     {1, 0, 0}, {2, 0, 2},  // NP
                     {1, 1, 0}, {3, 3, 5},  // GL
                     {1, 0, 0}, {3, 0, 4},  // BL
                 }});
}

}  // namespace
}  // namespace genealog::queries
