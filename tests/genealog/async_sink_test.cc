// The asynchronous provenance sink must be invisible in the data: for the
// same unfolded stream, the on-disk provenance file must be *byte-identical*
// with the async writer on or off — also when a tiny buffer cap forces the
// double-buffer swap through many background handoffs mid-run. The input
// stream is built once and shared across configurations, so the comparison
// really is byte-for-byte (ids and stimuli of the recorded tuples are pinned
// by construction). Runs under TSan in CI (repeated until-fail) to gate the
// producer/writer protocol.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "genealog/provenance_sink.h"
#include "genealog/su.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/topology.h"
#include "testing/harness.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;
using testing::ValueTuple;

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// A pinned unfolded stream: per "sink tuple" ts, one derived tuple with a
// fan of origins, every id/stimulus fixed at construction. Shared across
// runs, so the serialized records cannot differ by construction.
struct PinnedStream {
  std::vector<IntrusivePtr<ValueTuple>> keep_alive;
  std::vector<IntrusivePtr<UnfoldedTuple>> unfolded;
};

PinnedStream MakePinnedStream(int n_records, int origins_per_record) {
  PinnedStream s;
  uint64_t next_id = 1;
  for (int r = 0; r < n_records; ++r) {
    auto derived = V(r, 1000 + r);
    derived->id = next_id++;
    derived->stimulus = 7;  // pinned: wall clock must not leak into the file
    s.keep_alive.push_back(derived);
    for (int o = 0; o < origins_per_record; ++o) {
      auto origin = V(r, 100 * r + o);
      origin->kind = TupleKind::kSource;
      origin->id = next_id++;
      origin->stimulus = 7;
      s.keep_alive.push_back(origin);
      auto u = MakeTuple<UnfoldedTuple>(derived->ts);
      u->derived = derived;
      u->derived_id = derived->id;
      u->derived_ts = derived->ts;
      u->origin = TuplePtr(origin.get());
      u->origin_id = origin->id;
      u->origin_ts = origin->ts;
      u->origin_kind = origin->kind;
      s.unfolded.push_back(std::move(u));
    }
  }
  return s;
}

// Streams the pinned unfolded tuples through a ProvenanceSinkNode and
// returns the file contents.
std::string RunToFile(const PinnedStream& stream, const std::string& path,
                      bool async, size_t buffer_bytes) {
  Topology topo(1, ProvenanceMode::kGenealog);
  auto* source =
      topo.Add<VectorSourceNode<UnfoldedTuple>>("src", stream.unfolded);
  ProvenanceSinkSpec pso;
  pso.file_path = path;
  pso.engine.async_prov_sink = async;
  pso.engine.prov_buffer_bytes = buffer_bytes;
  auto* prov = topo.Add<ProvenanceSinkNode>("k2", pso);
  EXPECT_EQ(prov->async(), async);
  topo.Connect(source, prov);
  RunToCompletion(topo);
  EXPECT_GT(prov->records(), 0u);
  EXPECT_FALSE(prov->write_error());
  const std::string bytes = ReadAll(path);
  EXPECT_EQ(prov->bytes_written(), bytes.size());
  std::remove(path.c_str());
  return bytes;
}

TEST(AsyncProvenanceSinkTest, FileBytesIdenticalToSynchronousPath) {
  const PinnedStream stream = MakePinnedStream(400, 5);
  const std::string path = ::testing::TempDir() + "/prov_async_a.bin";
  const std::string sync_bytes =
      RunToFile(stream, path, /*async=*/false, /*buffer_bytes=*/256 * 1024);
  const std::string async_bytes =
      RunToFile(stream, path, /*async=*/true, /*buffer_bytes=*/256 * 1024);
  ASSERT_FALSE(sync_bytes.empty());
  EXPECT_EQ(async_bytes, sync_bytes);
}

TEST(AsyncProvenanceSinkTest, TinyBufferForcesHandoffsAndStaysIdentical) {
  const PinnedStream stream = MakePinnedStream(600, 3);
  const std::string path = ::testing::TempDir() + "/prov_async_b.bin";
  const std::string sync_bytes =
      RunToFile(stream, path, /*async=*/false, /*buffer_bytes=*/256 * 1024);
  // 48-byte buffers: every record spans multiple background handoffs.
  const std::string async_bytes =
      RunToFile(stream, path, /*async=*/true, /*buffer_bytes=*/48);
  ASSERT_FALSE(sync_bytes.empty());
  EXPECT_EQ(async_bytes, sync_bytes);
}

TEST(AsyncProvenanceSinkTest, EnvDefaultIsHonoredWhenUnset) {
  // Options left unset follow the process default (GENEALOG_ASYNC_PROV_SINK;
  // on when the test environment does not override it).
  const std::string path = ::testing::TempDir() + "/prov_async_c.bin";
  Topology topo(1, ProvenanceMode::kGenealog);
  std::vector<IntrusivePtr<ValueTuple>> data;
  data.push_back(V(1, 1));
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", std::move(data));
  auto* su = topo.Add<SuNode>("su");
  auto* sink = topo.Add<SinkNode>("sink");
  ProvenanceSinkSpec pso;
  pso.file_path = path;
  auto* prov = topo.Add<ProvenanceSinkNode>("k2", pso);
  EXPECT_EQ(prov->async(), engine_defaults::AsyncProvSink());
  topo.Connect(source, su);
  topo.Connect(su, sink);
  topo.Connect(su, prov);
  RunToCompletion(topo);
  EXPECT_FALSE(ReadAll(path).empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace genealog
