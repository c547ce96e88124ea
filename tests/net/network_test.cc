// Tests for the simulated network fabric and byte-accurate accounting.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/network.h"

namespace cvm {
namespace {

Message Make(NodeId from, NodeId to, Payload payload) {
  Message m;
  m.from = from;
  m.to = to;
  m.payload = std::move(payload);
  return m;
}

TEST(NetworkTest, DeliversFifoPerInbox) {
  Network net(2);
  for (int i = 0; i < 5; ++i) {
    PageRequestMsg req;
    req.page = i;
    net.Send(Make(0, 1, req));
  }
  for (int i = 0; i < 5; ++i) {
    auto msg = net.Recv(1);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get<PageRequestMsg>(msg->payload).page, i);
    EXPECT_EQ(msg->from, 0);
  }
  EXPECT_FALSE(net.TryRecv(1).has_value());
}

TEST(NetworkTest, CloseWakesBlockedReceivers) {
  Network net(1);
  std::thread receiver([&] {
    auto msg = net.Recv(0);
    EXPECT_FALSE(msg.has_value());
  });
  net.Close();
  receiver.join();
}

TEST(NetworkTest, CountsBytesByKind) {
  Network net(2);
  PageReplyMsg reply;
  reply.page = 0;
  reply.data = std::vector<uint8_t>(4096, 0);
  net.Send(Make(0, 1, reply));
  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, kMessageHeaderBytes + 8 + 4096);
  EXPECT_EQ(stats.bytes_by_kind.at("PageReply"), stats.bytes);
  EXPECT_EQ(stats.read_notice_bytes, 0u);
}

TEST(NetworkTest, ReadNoticeBytesTrackedOnSyncMessages) {
  Network net(2);
  IntervalRecord record;
  record.id = IntervalId{0, 0};
  record.vc = VectorClock(2);
  record.write_pages = {1, 2};
  record.read_pages = {3, 4, 5};

  LockGrantMsg grant;
  grant.lock = 0;
  grant.releaser_vc = VectorClock(2);
  grant.intervals = {std::make_shared<const IntervalRecord>(record)};
  net.Send(Make(0, 1, grant));

  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.read_notice_bytes, 3 * sizeof(PageId));
  EXPECT_GT(stats.bytes, stats.read_notice_bytes);
}

TEST(NetworkTest, TotalsEqualSumOfPerKindAccounting) {
  Network net(3);
  PageRequestMsg req;
  req.page = 1;
  PageReplyMsg reply;
  reply.page = 1;
  reply.data = std::vector<uint8_t>(512, 0);
  LockRequestMsg lock_req;
  lock_req.requester_vc = VectorClock(3);
  net.Send(Make(0, 1, req));
  net.Send(Make(1, 0, reply));
  net.Send(Make(2, 0, lock_req));
  net.Send(Make(0, 2, req));

  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.messages, 4u);
  uint64_t kind_messages = 0;
  uint64_t kind_bytes = 0;
  for (const auto& [kind, count] : stats.messages_by_kind) {
    kind_messages += count;
  }
  for (const auto& [kind, bytes] : stats.bytes_by_kind) {
    kind_bytes += bytes;
  }
  EXPECT_EQ(stats.messages, kind_messages);
  EXPECT_EQ(stats.bytes, kind_bytes);
  EXPECT_EQ(stats.messages_by_kind.at("PageRequest"), 2u);
  EXPECT_EQ(stats.messages_by_kind.at("PageReply"), 1u);
  EXPECT_EQ(stats.messages_by_kind.at("LockRequest"), 1u);
}

TEST(NetworkTest, PerSenderAccountingIncludesUnaddressedSenders) {
  Network net(3);
  PageRequestMsg req;
  net.Send(Make(2, 0, req));
  net.Send(Make(2, 1, req));
  net.Send(Make(kNoNode, 1, req));  // A raw fabric user with no node id.
  const NetworkStats stats = net.stats();
  const uint64_t req_bytes = PayloadByteSize(Payload(req));
  EXPECT_EQ(stats.messages_by_sender.size(), 2u);
  EXPECT_EQ(stats.messages_by_sender.at(2), 2u);
  EXPECT_EQ(stats.bytes_by_sender.at(2), 2 * req_bytes);
  EXPECT_EQ(stats.messages_by_sender.at(kNoNode), 1u);
  EXPECT_EQ(stats.bytes_by_sender.at(kNoNode), req_bytes);
  EXPECT_EQ(stats.messages_by_kind.size(), 1u);
  EXPECT_EQ(stats.bytes_by_kind.at("PageRequest"), stats.bytes);
}

VectorClock Clock(std::vector<IntervalIndex> entries) {
  VectorClock vc(static_cast<int>(entries.size()));
  for (size_t i = 0; i < entries.size(); ++i) {
    vc.Set(static_cast<NodeId>(i), entries[i]);
  }
  return vc;
}

RecordRef PinRecord(NodeId node, IntervalIndex index, EpochId epoch,
                    std::vector<IntervalIndex> vc, std::vector<PageId> writes,
                    std::vector<PageId> reads) {
  IntervalRecord r;
  r.id = IntervalId{node, index};
  r.vc = Clock(std::move(vc));
  r.epoch = epoch;
  r.write_pages = std::move(writes);
  r.read_pages = std::move(reads);
  return std::make_shared<const IntervalRecord>(std::move(r));
}

// The interval-carrying messages hold shared record handles, but their
// modeled sizes must be those of the records themselves. The literals are
// the sizes the by-value message layout gave for the same records: a change
// to how records travel must not move a single wire or read-notice byte.
TEST(NetworkTest, IntervalMessageSizesArePinned) {
  const std::vector<RecordRef> records = {
      PinRecord(0, 1, 0, {1, 0, 0, 0, 0, 0, 0, 0}, {1, 2}, {3, 4, 5}),
      PinRecord(1, 2, 1, {1, 2, 2, 2, 2, 2, 2, 0}, {7}, {}),
      PinRecord(3, 1, 1, {4, 4, 4, 1, 4, 4, 4, 4}, {}, {9}),
  };
  LockGrantMsg grant;
  grant.lock = 3;
  grant.intervals = records;
  grant.releaser_vc = Clock({1, 2, 0, 1, 0, 0, 0, 0});
  LockRequestMsg queued;
  queued.lock = 3;
  queued.requester = 2;
  queued.requester_vc = Clock({0, 0, 1, 0, 0, 0, 0, 0});
  grant.handoff = {queued};
  BarrierArriveMsg arrive;
  arrive.epoch = 1;
  arrive.node = 1;
  arrive.intervals = records;
  arrive.vc = Clock({1, 2, 2, 2, 2, 2, 2, 0});
  BarrierReleaseMsg release;
  release.epoch = 1;
  release.intervals = records;
  release.merged_vc = Clock({4, 4, 4, 4, 4, 4, 4, 4});
  BarrierTreeArriveMsg tree_arrive;
  tree_arrive.epoch = 1;
  tree_arrive.node = 1;
  tree_arrive.intervals = records;
  tree_arrive.vc = Clock({4, 4, 4, 4, 4, 4, 4, 4});
  tree_arrive.min_vc = Clock({1, 0, 0, 1, 0, 0, 0, 0});
  tree_arrive.fragments = {TreeFragmentPair{IntervalId{0, 1}, IntervalId{1, 2}, {2, 7}}};
  tree_arrive.interest = {1, 2, 7, 9};
  BarrierTreeReleaseMsg tree_release;
  tree_release.epoch = 1;
  tree_release.intervals = records;
  tree_release.merged_vc = Clock({4, 4, 4, 4, 4, 4, 4, 4});

  const size_t kReadNoticeBytes = 4 * sizeof(PageId);  // Pages 3, 4, 5 and 9.
  EXPECT_EQ(PayloadByteSize(Payload(grant)), 301u);
  EXPECT_EQ(PayloadReadNoticeBytes(Payload(grant)), kReadNoticeBytes);
  EXPECT_EQ(PayloadByteSize(Payload(arrive)), 268u);
  EXPECT_EQ(PayloadReadNoticeBytes(Payload(arrive)), kReadNoticeBytes);
  EXPECT_EQ(PayloadByteSize(Payload(release)), 268u);
  EXPECT_EQ(PayloadReadNoticeBytes(Payload(release)), kReadNoticeBytes);
  EXPECT_EQ(PayloadByteSize(Payload(tree_arrive)), 316u);
  EXPECT_EQ(PayloadReadNoticeBytes(Payload(tree_arrive)), kReadNoticeBytes);
  EXPECT_EQ(PayloadByteSize(Payload(tree_release)), 228u);
  EXPECT_EQ(PayloadReadNoticeBytes(Payload(tree_release)), kReadNoticeBytes);

  // The network stamps the same sizes on the wire.
  Network net(4);
  net.Send(Make(0, 1, grant));
  net.Send(Make(1, 0, arrive));
  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.bytes, 301u + 268u);
  EXPECT_EQ(stats.read_notice_bytes, 2 * kReadNoticeBytes);
  EXPECT_EQ(stats.bytes_by_kind.at("LockGrant"), 301u);
  EXPECT_EQ(stats.bytes_by_sender.at(1), 268u);
}

TEST(NetworkTest, ObservabilityCountersMirrorStats) {
  Network net(2);
  obs::Tracer tracer(2, [] {
    obs::TraceConfig config;
    config.trace_enabled = true;
    return config;
  }());
  obs::MetricsRegistry metrics;
  net.AttachObservability(&tracer, &metrics);

  PageReplyMsg reply;
  reply.data = std::vector<uint8_t>(256, 0);
  net.Send(Make(0, 1, reply));
  net.Send(Make(1, 0, PageRequestMsg{}));
  (void)net.Recv(1);

  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.messages, 2u);
  if constexpr (!obs::kObsCompiledIn) {
    // Compiled out (-DCVM_OBS=OFF): the fabric attaches nothing, so the
    // tracer records no event and the registry's metrics stay untouched
    // while the plain network stats still count every send.
    EXPECT_TRUE(tracer.Collected().empty());
    EXPECT_EQ(metrics.counter("net.messages")->value(), 0u);
    EXPECT_EQ(metrics.counter("net.bytes")->value(), 0u);
    EXPECT_EQ(metrics.histogram("net.msg_bytes")->count(), 0u);
    EXPECT_EQ(metrics.histogram("net.msg_latency_ns")->count(), 0u);
    return;
  }
  EXPECT_EQ(metrics.counter("net.messages")->value(), stats.messages);
  EXPECT_EQ(metrics.counter("net.bytes")->value(), stats.bytes);
  EXPECT_EQ(metrics.histogram("net.msg_bytes")->count(), 2u);
  // One delivery consumed -> one latency observation.
  EXPECT_EQ(metrics.histogram("net.msg_latency_ns")->count(), 1u);
  // Two msg.send instants + two fallback flow 's' steps (raw-network sends
  // are unstamped, so the fabric starts the chains) + one msg.recv instant.
  EXPECT_EQ(tracer.Collected().size(), 5u);
}

TEST(MessageTest, PayloadSizesAreConsistent) {
  // Wire size must grow with content and include the header.
  PageRequestMsg req;
  EXPECT_EQ(PayloadByteSize(Payload(req)), kMessageHeaderBytes + 13);

  // A raw-encoded bitmap entry costs the legacy full-page payload plus the
  // codec's per-bitmap header (tag byte + bit count).
  BitmapReplyMsg reply;
  reply.entries = {BitmapReplyEntry{IntervalId{0, 0}, 0,
                                    BitmapCodec::Encode(Bitmap(1024), false),
                                    BitmapCodec::Encode(Bitmap(1024), false)}};
  EXPECT_EQ(PayloadByteSize(Payload(reply)),
            kMessageHeaderBytes + 8 + sizeof(IntervalId) + sizeof(PageId) +
                2 * (EncodedBitmap::kHeaderBytes + 128));

  Message m = Make(0, 0, reply);
  EXPECT_STREQ(m.KindName(), "BitmapReply");

  // An empty bitmap compresses to just the codec header.
  BitmapShipMsg ship;
  ship.entries = {BitmapReplyEntry{IntervalId{0, 0}, 0,
                                   BitmapCodec::Encode(Bitmap(1024), true),
                                   BitmapCodec::Encode(Bitmap(1024), true)}};
  EXPECT_EQ(PayloadByteSize(Payload(ship)),
            kMessageHeaderBytes + 8 + sizeof(uint64_t) + sizeof(IntervalId) + sizeof(PageId) +
                2 * EncodedBitmap::kHeaderBytes);
  EXPECT_STREQ(Make(0, 0, ship).KindName(), "BitmapShip");
}

TEST(MessageTest, SendToInvalidNodeAborts) {
  Network net(2);
  PageRequestMsg req;
  EXPECT_DEATH(net.Send(Make(0, 7, req)), "CHECK failed");
}

}  // namespace
}  // namespace cvm
