// Failure injection: a production engine must unwind cleanly — no deadlocks,
// no leaks, errors surfaced to the caller — when channels break mid-stream,
// frames are corrupted, or a remote peer disappears.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "common/memory_accounting.h"
#include "net/channel.h"
#include "net/frame.h"
#include "net/send_receive.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"
#include "testing/harness.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::Collector;
using testing::V;
using testing::ValueTuple;

std::vector<IntrusivePtr<ValueTuple>> Ramp(int n) {
  std::vector<IntrusivePtr<ValueTuple>> out;
  for (int i = 0; i < n; ++i) out.push_back(V(i, i));
  return out;
}

TEST(FailureTest, ReceiverTreatsChannelCloseWithoutFlushAsEndOfStream) {
  // The sender dies (channel closed) before sending a flush frame: the
  // receiving instance must still unwind and flush downstream.
  InMemoryChannel channel;
  channel.SendFrame(EncodeTupleFrame(*V(1, 10), false));
  channel.CloseSend();  // no flush frame

  Topology topo(2);
  auto* recv = topo.Add<ReceiveNode>("recv", &channel);
  Collector c;
  auto* sink = c.AttachSink(topo);
  topo.Connect(recv, sink);
  RunToCompletion(topo);  // must terminate
  EXPECT_EQ(c.tuples().size(), 1u);
}

TEST(FailureTest, CorruptFrameFailsTheRunLoudly) {
  InMemoryChannel channel;
  channel.SendFrame({0x42, 0x13, 0x37});  // garbage
  channel.CloseSend();

  Topology topo(2);
  auto* recv = topo.Add<ReceiveNode>("recv", &channel);
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(recv, sink);
  Runner runner({&topo});
  runner.Start();
  EXPECT_THROW(runner.Join(), std::exception);
}

TEST(FailureTest, TruncatedTupleFrameFailsTheRunLoudly) {
  InMemoryChannel channel;
  auto frame = EncodeTupleFrame(*V(1, 10), false);
  frame.resize(frame.size() / 2);
  channel.SendFrame(std::move(frame));
  channel.CloseSend();

  Topology topo(2);
  auto* recv = topo.Add<ReceiveNode>("recv", &channel);
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(recv, sink);
  Runner runner({&topo});
  runner.Start();
  EXPECT_THROW(runner.Join(), std::exception);
}

TEST(FailureTest, MalformedFrameErrorNamesNodeAndFrameKind) {
  // A corrupt frame must produce a diagnosable error: which Receive endpoint
  // saw it and what kind of frame it claimed to be.
  InMemoryChannel channel;
  std::vector<uint8_t> bogus = {
      static_cast<uint8_t>(FrameKind::kBatch), 0xFF, 0xFF, 0xFF};  // truncated
  channel.SendFrame(std::move(bogus));
  channel.CloseSend();

  Topology topo(2);
  auto* recv = topo.Add<ReceiveNode>("recv.U", &channel);
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(recv, sink);
  Runner runner({&topo});
  runner.Start();
  try {
    runner.Join();
    FAIL() << "corrupt frame did not fail the run";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("recv.U"), std::string::npos) << what;
    EXPECT_NE(what.find("batch"), std::string::npos) << what;
  }
}

TEST(FailureTest, CorruptCompactFrameErrorNamesTheCodec) {
  // A compact frame whose dictionary references dangle (mid-stream join)
  // must name the compact codec in the error, not decode garbage.
  // The referencing tuple's deltas and payload hold no 4-byte repeat, so LZ
  // cannot shrink the body and it travels uncompressed.
  FrameEncoder encoder(WireCodec::kCompact);
  std::vector<TuplePtr> batch = {V(1, 1)};
  encoder.EncodeBatch(batch, kNoWatermark, false);  // defines the dictionary
  batch[0] = V(1'000'003, 0x0102030405060708);
  batch[0]->stimulus = 777'777;
  auto frames = encoder.EncodeBatch(batch, kNoWatermark, false);  // references
  ASSERT_EQ(frames[0].at(2) & 0x1, 0) << "body unexpectedly LZ-compressed";

  InMemoryChannel channel;
  channel.SendFrame(std::move(frames[0]));
  channel.CloseSend();
  Topology topo(2);
  auto* recv = topo.Add<ReceiveNode>("recv", &channel);
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(recv, sink);
  Runner runner({&topo});
  runner.Start();
  try {
    runner.Join();
    FAIL() << "dangling dictionary reference did not fail the run";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("recv"), std::string::npos) << what;
    EXPECT_NE(what.find("compact-batch"), std::string::npos) << what;
  }
}

TEST(FailureTest, TcpMalformedLengthPrefixThrowsNamedError) {
  // A zero or absurd length prefix is stream corruption, not end-of-stream:
  // RecvFrame must throw (named), never silently drop the connection.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  TcpChannel receiver(fds[0]);

  const uint32_t zero = 0;
  ASSERT_EQ(::send(fds[1], &zero, 4, 0), 4);
  std::vector<uint8_t> frame;
  try {
    receiver.RecvFrame(frame);
    FAIL() << "zero-length prefix did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed frame length"),
              std::string::npos);
  }
  ::close(fds[1]);
}

TEST(FailureTest, TcpPeerResetUnblocksBothSides) {
  auto [sender, receiver] = MakeTcpChannelPair();

  Topology sender_side(1);
  std::atomic<bool> stop{false};
  SourceOptions options;
  options.stop = &stop;
  options.replays = 1000000;
  options.replay_ts_shift = 100;
  auto* source =
      sender_side.Add<VectorSourceNode<ValueTuple>>("src", Ramp(100), options);
  auto* send = sender_side.Add<SendNode>("send", sender.get());
  sender_side.Connect(source, send);

  Topology receiver_side(2);
  auto* recv = receiver_side.Add<ReceiveNode>("recv", receiver.get());
  auto* sink = receiver_side.Add<SinkNode>("sink");
  receiver_side.Connect(recv, sink);

  Runner runner({&sender_side, &receiver_side});
  runner.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Kill the connection from the receiving end mid-stream.
  receiver->Abort();
  sender->Abort();
  stop.store(true);
  runner.Join();  // must terminate (no exception contract for remote resets
                  // on the send path; SendNode drops frames once broken)
  EXPECT_GT(sink->count(), 0u);
}

TEST(FailureTest, NoTupleLeaksAfterMidStreamAbort) {
  const int64_t base = mem::LiveTupleCount();
  {
    InMemoryChannel channel(8);
    Topology instance1(1);
    Topology instance2(2);
    std::atomic<bool> stop{false};
    SourceOptions options;
    options.stop = &stop;
    options.replays = 100000;
    options.replay_ts_shift = 1000;
    auto* source = instance1.Add<VectorSourceNode<ValueTuple>>(
        "src", Ramp(1000), options);
    auto* send = instance1.Add<SendNode>("send", &channel);
    auto* recv = instance2.Add<ReceiveNode>("recv", &channel);
    auto* sink = instance2.Add<SinkNode>("sink");
    instance1.Connect(source, send);
    instance2.Connect(recv, sink);
    Runner runner({&instance1, &instance2});
    runner.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    channel.Abort();
    stop.store(true);
    runner.Join();
  }
  EXPECT_EQ(mem::LiveTupleCount() - base, 0);
}

TEST(FailureTest, CrashInOneInstanceUnblocksChannelWaitersViaRegistration) {
  // Instance 2's operator throws mid-stream. Without channel registration the
  // Receive node (blocked on the channel) and hence Runner::Join would hang;
  // with it, the whole distributed run unwinds and rethrows.
  InMemoryChannel data_channel;
  InMemoryChannel idle_channel;  // nobody ever sends here

  Topology instance1(1);
  Topology instance2(2);
  std::atomic<bool> stop{false};
  SourceOptions options;
  options.stop = &stop;
  options.replays = 1000000;
  options.replay_ts_shift = 1000;
  auto* source =
      instance1.Add<VectorSourceNode<ValueTuple>>("src", Ramp(1000), options);
  auto* send = instance1.Add<SendNode>("send", &data_channel);
  instance1.Connect(source, send);

  auto* recv = instance2.Add<ReceiveNode>("recv", &data_channel);
  // A second receiver blocked forever on the idle channel: only the abort
  // registration can unblock it.
  auto* idle_recv = instance2.Add<ReceiveNode>("idle_recv", &idle_channel);
  auto* idle_sink = instance2.Add<SinkNode>("idle_sink");
  instance2.Connect(idle_recv, idle_sink);
  auto* bomb = instance2.Add<MapNode<ValueTuple, ValueTuple>>(
      "bomb", [](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        if (in.value == 500) throw std::runtime_error("operator crash");
        out.Emit(MakeTuple<ValueTuple>(0, in.value));
      });
  auto* sink = instance2.Add<SinkNode>("sink");
  instance2.Connect(recv, bomb);
  instance2.Connect(bomb, sink);

  instance1.RegisterAbortable(&data_channel);
  instance1.RegisterAbortable(&idle_channel);

  Runner runner({&instance1, &instance2});
  runner.Start();
  EXPECT_THROW(runner.Join(), std::runtime_error);
  stop.store(true);
}

TEST(FailureTest, AbortedDownstreamQueueStopsUpstreamGracefully) {
  // Simulates an operator crash: its input queue aborts; upstream emitters
  // observe the failed push and unwind without blocking forever.
  Topology topo;
  std::atomic<bool> stop{false};
  SourceOptions options;
  options.stop = &stop;
  options.replays = 1000000;
  options.replay_ts_shift = 10;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(10), options);
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(source, sink);
  Runner runner({&topo});
  runner.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  topo.AbortAll();
  runner.Join();
  SUCCEED();
}

}  // namespace
}  // namespace genealog
