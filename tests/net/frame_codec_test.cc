// Compact wire codec: the decoded stream must be byte-identical to the raw
// codec's for every batch shape, watermark placement, dictionary state and
// reset point — and malformed input must be rejected, never mis-decoded.
#include <gtest/gtest.h>

#include <random>

#include "common/serialize.h"
#include "net/frame.h"
#include "spe/stream_batch.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::KeyedTuple;
using testing::V;
using testing::ValueTuple;

// Serializes every decoded tuple (full header + payload) so two decode paths
// can be compared byte-for-byte.
std::vector<uint8_t> CanonicalBytes(const std::vector<TuplePtr>& tuples) {
  ByteWriter w;
  for (const TuplePtr& t : tuples) SerializeTuple(*t, w);
  return w.TakeBytes();
}

std::vector<TuplePtr> DecodeAll(FrameDecoder& decoder,
                                const std::vector<std::vector<uint8_t>>& frames,
                                std::vector<int64_t>* watermarks = nullptr) {
  std::vector<TuplePtr> out;
  for (const auto& frame : frames) {
    DecodedFrame d = decoder.Decode(frame);
    switch (d.kind) {
      case FrameKind::kTuple:
        out.push_back(d.tuple);
        break;
      case FrameKind::kBatch:
      case FrameKind::kCompactBatch:
        for (auto& t : d.tuples) out.push_back(std::move(t));
        if (watermarks != nullptr && d.watermark != kNoWatermark) {
          watermarks->push_back(d.watermark);
        }
        break;
      case FrameKind::kWatermark:
        if (watermarks != nullptr) watermarks->push_back(d.watermark);
        break;
      case FrameKind::kFlush:
        break;
    }
  }
  return out;
}

TuplePtr RandomTuple(std::mt19937_64& rng, int64_t i) {
  TuplePtr t;
  if (rng() % 2 == 0) {
    t = MakeTuple<ValueTuple>(static_cast<int64_t>(rng() % 1000), i);
  } else {
    t = MakeTuple<KeyedTuple>(static_cast<int64_t>(rng() % 1000), i,
                              static_cast<double>(rng() % 97) / 7.0);
  }
  // Ids as the instrumented engine makes them: uid high 24 bits, dense
  // per-uid sequence low 40.
  const uint64_t uid = rng() % 5;
  t->id = (uid << 40) | (static_cast<uint64_t>(i) + rng() % 3);
  t->kind = static_cast<TupleKind>(rng() % 6);
  t->stimulus = static_cast<int64_t>(rng() % 100000) - 50000;
  if (rng() % 4 == 0) {
    std::vector<uint64_t> ann;
    const size_t n = rng() % 5;
    uint64_t id = rng() % 1000;
    for (size_t j = 0; j < n; ++j) ann.push_back(id += rng() % 50);
    t->set_baseline_annotation(std::move(ann));
  }
  return t;
}

// A batch whose compact body LZ cannot shrink: full-range random ids,
// timestamps, stimuli and payloads leave no 4-byte repeat to match, so the
// encoder ships the body uncompressed.
std::vector<TuplePtr> IncompressibleBatch(std::mt19937_64& rng, int n) {
  std::vector<TuplePtr> batch;
  for (int i = 0; i < n; ++i) {
    auto t = V(static_cast<int64_t>(rng() >> 2), static_cast<int64_t>(rng()));
    t->id = rng();
    t->stimulus = static_cast<int64_t>(rng() >> 2);
    batch.push_back(t);
  }
  return batch;
}

// Compact frame layout: u8 kind | u8 generation | u8 flags | ...; flags bit 0
// marks an LZ-compressed body.
bool IsCompressed(const std::vector<uint8_t>& frame) {
  return (frame.at(2) & 0x1) != 0;
}

TEST(FrameCodecTest, CompactBatchRoundTripsAllFields) {
  std::vector<TuplePtr> batch;
  for (int i = 0; i < 10; ++i) {
    auto t = V(100 + i, i);
    t->id = (uint64_t{7} << 40) | static_cast<uint64_t>(i + 1);
    t->kind = TupleKind::kAggregate;
    t->stimulus = 1000000 + i;
    batch.push_back(t);
  }
  FrameEncoder encoder(WireCodec::kCompact);
  auto frames = encoder.EncodeBatch(batch, /*watermark=*/109, false);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0][0], static_cast<uint8_t>(FrameKind::kCompactBatch));

  FrameDecoder decoder;
  std::vector<int64_t> wms;
  auto decoded = DecodeAll(decoder, frames, &wms);
  ASSERT_EQ(decoded.size(), batch.size());
  EXPECT_EQ(CanonicalBytes(decoded), CanonicalBytes(batch));
  ASSERT_EQ(wms.size(), 1u);
  EXPECT_EQ(wms[0], 109);
}

TEST(FrameCodecTest, CompactEqualsRawAtEveryBatchSize) {
  std::mt19937_64 rng(42);
  for (size_t batch_size : {1u, 2u, 3u, 7u, 64u}) {
    std::vector<TuplePtr> stream;
    for (int64_t i = 0; i < 200; ++i) stream.push_back(RandomTuple(rng, i));

    for (bool remotify : {false, true}) {
      std::vector<TuplePtr> raw_decoded, compact_decoded;
      std::vector<int64_t> raw_wms, compact_wms;
      for (auto [codec, decoded, wms] :
           {std::tuple{WireCodec::kRaw, &raw_decoded, &raw_wms},
            std::tuple{WireCodec::kCompact, &compact_decoded, &compact_wms}}) {
        FrameEncoder encoder(codec);
        FrameDecoder decoder;
        for (size_t i = 0; i < stream.size(); i += batch_size) {
          const size_t n = std::min(batch_size, stream.size() - i);
          const int64_t wm =
              (i / batch_size) % 3 == 0 ? stream[i + n - 1]->ts : kNoWatermark;
          auto frames = encoder.EncodeBatch(
              std::span<const TuplePtr>(stream.data() + i, n), wm, remotify);
          auto part = DecodeAll(decoder, frames, wms);
          decoded->insert(decoded->end(), part.begin(), part.end());
        }
      }
      ASSERT_EQ(compact_decoded.size(), stream.size());
      EXPECT_EQ(CanonicalBytes(compact_decoded), CanonicalBytes(raw_decoded))
          << "batch_size=" << batch_size << " remotify=" << remotify;
      EXPECT_EQ(compact_wms, raw_wms);
    }
  }
}

TEST(FrameCodecTest, FuzzRandomBatchesWatermarksAndResets) {
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 30; ++round) {
    FrameEncoder raw_enc(WireCodec::kRaw);
    FrameEncoder compact_enc(WireCodec::kCompact);
    FrameDecoder raw_dec, compact_dec;
    std::vector<TuplePtr> raw_out, compact_out;
    std::vector<int64_t> raw_wms, compact_wms;

    int64_t seq = 0;
    const int n_batches = 1 + static_cast<int>(rng() % 20);
    for (int b = 0; b < n_batches; ++b) {
      if (rng() % 5 == 0) {
        // Mid-stream reconnect: both sides of the compact channel restart;
        // the raw stream is stateless so only the compact encoder resets.
        compact_enc.Reset();
      }
      std::vector<TuplePtr> batch;
      const size_t count = rng() % 8;  // including empty batches
      for (size_t i = 0; i < count; ++i) {
        batch.push_back(RandomTuple(rng, seq++));
      }
      const int64_t wm =
          rng() % 2 == 0 ? static_cast<int64_t>(rng() % 4096) - 48
                         : kNoWatermark;
      const bool remotify = rng() % 2 == 0;
      auto a = DecodeAll(raw_dec, raw_enc.EncodeBatch(batch, wm, remotify),
                         &raw_wms);
      auto c = DecodeAll(compact_dec,
                         compact_enc.EncodeBatch(batch, wm, remotify),
                         &compact_wms);
      raw_out.insert(raw_out.end(), a.begin(), a.end());
      compact_out.insert(compact_out.end(), c.begin(), c.end());
    }
    ASSERT_EQ(CanonicalBytes(compact_out), CanonicalBytes(raw_out))
        << "round " << round;
    EXPECT_EQ(compact_wms, raw_wms) << "round " << round;
  }
}

TEST(FrameCodecTest, EncoderResetIsDecoderSafe) {
  // A decoder that followed generation 0 must survive the sender resetting:
  // the first post-reset frame redefines every dictionary entry it uses.
  FrameEncoder encoder(WireCodec::kCompact);
  FrameDecoder decoder;
  std::vector<TuplePtr> batch = {V(10, 1), V(11, 2)};
  for (auto& t : batch) t->id = (uint64_t{3} << 40) | 1;
  DecodeAll(decoder, encoder.EncodeBatch(batch, kNoWatermark, false));

  encoder.Reset();
  auto decoded =
      DecodeAll(decoder, encoder.EncodeBatch(batch, kNoWatermark, false));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(CanonicalBytes(decoded), CanonicalBytes(batch));
}

TEST(FrameCodecTest, FreshDecoderRejectsDanglingDictionaryReferences) {
  // Joining a compact stream mid-generation (frame 2 references entries
  // defined in frame 1) must fail loudly, not fabricate tuples — whether
  // the body travels uncompressed or LZ-compressed.
  std::mt19937_64 rng(5);
  std::vector<TuplePtr> runs;
  for (int64_t i = 0; i < 32; ++i) {
    auto t = V(i, 7);
    t->id = (uint64_t{1} << 40) | static_cast<uint64_t>(i + 1);
    runs.push_back(t);
  }
  for (const auto& batch : {IncompressibleBatch(rng, 8), runs}) {
    FrameEncoder encoder(WireCodec::kCompact);
    auto first = encoder.EncodeBatch(batch, kNoWatermark, false);
    auto second = encoder.EncodeBatch(batch, kNoWatermark, false);
    EXPECT_EQ(IsCompressed(second[0]), batch.size() == runs.size());
    FrameDecoder fresh;
    EXPECT_THROW(fresh.Decode(second[0]), std::runtime_error);
  }
}

TEST(FrameCodecTest, TruncatedCompactFramesAreRejected) {
  std::mt19937_64 rng(7);
  std::vector<TuplePtr> compressible;
  for (int64_t i = 0; i < 32; ++i) compressible.push_back(RandomTuple(rng, i));
  for (const auto& batch : {IncompressibleBatch(rng, 8), compressible}) {
    FrameEncoder encoder(WireCodec::kCompact);
    auto frames = encoder.EncodeBatch(batch, /*watermark=*/99, false);
    ASSERT_EQ(frames.size(), 1u);
    const auto& full = frames[0];
    EXPECT_EQ(IsCompressed(full), batch.size() == compressible.size());
    for (size_t len = 0; len < full.size(); ++len) {
      std::vector<uint8_t> cut(full.begin(), full.begin() + len);
      FrameDecoder decoder;
      EXPECT_ANY_THROW(decoder.Decode(cut)) << "prefix length " << len;
    }
  }
}

TEST(FrameCodecTest, CorruptCompactBodyIsRejectedOrEquivalent) {
  // Flipping bytes must never crash; it either throws or yields a frame that
  // still parses (e.g. a flipped payload bit). Nothing should hang or UB.
  std::mt19937_64 rng(11);
  std::vector<TuplePtr> compressible;
  for (int64_t i = 0; i < 16; ++i) compressible.push_back(RandomTuple(rng, i));
  for (const auto& batch : {IncompressibleBatch(rng, 8), compressible}) {
    FrameEncoder encoder(WireCodec::kCompact);
    auto frames = encoder.EncodeBatch(batch, 5, false);
    EXPECT_EQ(IsCompressed(frames[0]), batch.size() == compressible.size());
    for (int trial = 0; trial < 200; ++trial) {
      auto corrupt = frames[0];
      corrupt[rng() % corrupt.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
      FrameDecoder decoder;
      try {
        decoder.Decode(corrupt);
      } catch (const std::exception&) {
        // rejected: fine
      }
    }
  }
}

TEST(FrameCodecTest, StatelessDecodeFrameRejectsCompactFrames) {
  std::mt19937_64 rng(13);
  std::vector<TuplePtr> runs;
  for (int64_t i = 0; i < 32; ++i) runs.push_back(V(i, 7));
  for (const auto& batch : {IncompressibleBatch(rng, 4), runs}) {
    FrameEncoder encoder(WireCodec::kCompact);
    auto frames = encoder.EncodeBatch(batch, kNoWatermark, false);
    EXPECT_EQ(IsCompressed(frames[0]), batch.size() == runs.size());
    EXPECT_THROW(DecodeFrame(frames[0]), std::runtime_error);
  }
}

TEST(FrameCodecTest, BodyIsCompressedExactlyWhenLzShrinksIt) {
  // The encoder's rule: a compact frame carries the LZ body (behind a varint
  // raw size) iff that is strictly smaller than the raw body.
  std::mt19937_64 rng(17);
  int compressed = 0;
  int uncompressed = 0;
  for (int round = 0; round < 200; ++round) {
    const int n = 1 + static_cast<int>(rng() % 48);
    std::vector<TuplePtr> batch;
    if (round % 2 == 0) {
      batch = IncompressibleBatch(rng, n);
    } else {
      for (int64_t i = 0; i < n; ++i) batch.push_back(RandomTuple(rng, i));
    }
    FrameEncoder encoder(WireCodec::kCompact);
    const auto frames = encoder.EncodeBatch(batch, kNoWatermark, false);
    ASSERT_EQ(frames.size(), 1u);
    const std::vector<uint8_t>& frame = frames[0];
    ByteReader header(frame.data() + 3, frame.size() - 3);
    std::vector<uint8_t> body;
    if (IsCompressed(frame)) {
      ++compressed;
      const uint64_t raw_size = GetVarint(header);
      const std::vector<uint8_t> lz(frame.end() - header.remaining(),
                                    frame.end());
      body = LzBlockDecompress(lz, raw_size);
      EXPECT_LT(lz.size() + VarintSize(raw_size), body.size()) << round;
    } else {
      ++uncompressed;
      body.assign(frame.begin() + 3, frame.end());
      EXPECT_GE(LzBlockCompress(body).size() + VarintSize(body.size()),
                body.size())
          << round;
    }
    // Either form decodes to the batch.
    FrameDecoder decoder;
    EXPECT_EQ(CanonicalBytes(DecodeAll(decoder, frames)),
              CanonicalBytes(batch))
        << round;
  }
  EXPECT_GT(compressed, 0);
  EXPECT_GT(uncompressed, 0);
}

TEST(FrameCodecTest, WireStatsTrackRawEquivalentBytes) {
  std::vector<TuplePtr> batch;
  for (int64_t i = 0; i < 64; ++i) {
    auto t = V(i, i);
    t->id = (uint64_t{2} << 40) | static_cast<uint64_t>(i);
    batch.push_back(t);
  }
  // raw_bytes under kCompact must equal what the raw codec actually ships.
  FrameEncoder raw_enc(WireCodec::kRaw);
  FrameEncoder compact_enc(WireCodec::kCompact);
  raw_enc.EncodeBatch(batch, 63, true);
  compact_enc.EncodeBatch(batch, 63, true);
  EXPECT_EQ(compact_enc.stats().raw_bytes, raw_enc.stats().raw_bytes);
  EXPECT_LT(compact_enc.stats().encoded_bytes, compact_enc.stats().raw_bytes);
  EXPECT_GT(compact_enc.stats().ratio(), 1.0);
  EXPECT_EQ(compact_enc.stats().frames, 1u);

  // Degenerate batch-of-1 plus watermark: the raw path ships two frames.
  FrameEncoder raw1(WireCodec::kRaw);
  FrameEncoder compact1(WireCodec::kCompact);
  std::vector<TuplePtr> one = {batch[0]};
  raw1.EncodeBatch(one, 5, true);
  compact1.EncodeBatch(one, 5, true);
  EXPECT_EQ(raw1.stats().frames, 2u);
  EXPECT_EQ(compact1.stats().frames, 1u);
  EXPECT_EQ(compact1.stats().raw_bytes, raw1.stats().raw_bytes);
}

TEST(LzBlockTest, RoundTripsCompressibleAndRandomData) {
  std::mt19937_64 rng(3);
  std::vector<std::vector<uint8_t>> inputs;
  inputs.push_back({});                       // empty
  inputs.push_back({1, 2, 3});                // below min-match
  inputs.push_back(std::vector<uint8_t>(100, 7));  // one long run
  {
    std::vector<uint8_t> repeats;  // repeated 8-byte pattern
    for (int i = 0; i < 500; ++i) repeats.push_back(static_cast<uint8_t>(i % 8));
    inputs.push_back(std::move(repeats));
  }
  {
    std::vector<uint8_t> random(4096);  // incompressible
    for (auto& b : random) b = static_cast<uint8_t>(rng());
    inputs.push_back(std::move(random));
  }
  {
    std::vector<uint8_t> mixed;  // literals then a match ending at the end
    for (int i = 0; i < 64; ++i) mixed.push_back(static_cast<uint8_t>(rng()));
    mixed.insert(mixed.end(), mixed.begin(), mixed.begin() + 32);
    inputs.push_back(std::move(mixed));
  }
  for (const auto& in : inputs) {
    auto packed = LzBlockCompress(in);
    EXPECT_EQ(LzBlockDecompress(packed, in.size()), in) << in.size();
  }
  // The run-heavy inputs must actually shrink.
  EXPECT_LT(LzBlockCompress(std::vector<uint8_t>(100, 7)).size(), 20u);
}

TEST(LzBlockTest, MalformedBlocksAreRejected) {
  std::vector<uint8_t> data(64, 9);
  auto packed = LzBlockCompress(data);
  // Truncations.
  for (size_t len = 0; len < packed.size(); ++len) {
    std::vector<uint8_t> cut(packed.begin(), packed.begin() + len);
    EXPECT_THROW(LzBlockDecompress(cut, data.size()), std::runtime_error);
  }
  // Wrong declared size (too large wants more input; too small overflows).
  EXPECT_THROW(LzBlockDecompress(packed, data.size() + 100),
               std::runtime_error);
  EXPECT_THROW(LzBlockDecompress(packed, data.size() - 1), std::runtime_error);
  // A match offset pointing before the start of the output.
  const std::vector<uint8_t> bad_offset = {0x10, 0xAA, 0x05, 0x00};
  EXPECT_THROW(LzBlockDecompress(bad_offset, 6), std::runtime_error);
  // Offset zero is never valid.
  const std::vector<uint8_t> zero_offset = {0x10, 0xAA, 0x00, 0x00};
  EXPECT_THROW(LzBlockDecompress(zero_offset, 6), std::runtime_error);
}

}  // namespace
}  // namespace genealog
