// Equivalence of the combine-tree barrier path with the flat master
// barrier (docs/ARCHITECTURE.md "Combine-tree barrier"): for a
// deterministic barrier-only workload the tree must produce the
// bit-identical race-report list — same kinds, words, interval pairs and
// provenance — at every fanout, under both detection pipelines (the
// distributed one ships interned bitmaps), under every consistency
// protocol. The tree changes
// how check lists are built and where barrier traffic flows; it must not
// change what the detector reports or how the app-level coherence
// traffic looks on the wire.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>
#include <vector>

#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace cvm {
namespace {

constexpr uint64_t kPageSize = 256;
constexpr int kWordsPerPage = static_cast<int>(kPageSize / sizeof(int32_t));

DsmOptions BaseOptions(int nodes, ProtocolKind protocol) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.page_size = kPageSize;
  options.max_shared_bytes = static_cast<uint64_t>(nodes) * kPageSize + (1 << 16);
  options.protocol = protocol;
  return options;
}

// The neighbor-halo workload: one page per node. Each epoch every node
// writes words 0..3 of its own page, writes word 2 of its right neighbor's
// page (a W/W race with that node's own write), and reads word 9 of the
// neighbor page (concurrent but disjoint — a check pair that must NOT be
// reported). Barrier-only, so the run is fully deterministic and the
// expected report list is exact: nodes x epochs W/W races.
void HaloApp(NodeContext& ctx, SharedArray<int32_t>& data, int epochs) {
  const int id = ctx.id();
  const size_t own = static_cast<size_t>(id) * kWordsPerPage;
  const size_t next =
      static_cast<size_t>((id + 1) % ctx.num_nodes()) * kWordsPerPage;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (int w = 0; w < 4; ++w) {      // Covers word 2: the neighbor's target.
      data.Set(ctx, own + w, id * 100 + epoch * 10 + w);
    }
    data.Set(ctx, next + 2, id);       // Unsynchronized: the race.
    (void)data.Get(ctx, next + 9);     // Concurrent read, no race.
    if (epoch + 1 < epochs) {
      ctx.Barrier();
    }
    // The run's implicit final barrier checks the last epoch.
  }
}

std::vector<std::string> ReportKey(const RunResult& result) {
  std::vector<std::string> key;
  key.reserve(result.races.size());
  for (const RaceReport& report : result.races) {
    key.push_back(report.ToString());
  }
  return key;
}

struct BarrierVariant {
  bool tree = false;
  int fanout = 4;
  DetectionPipeline pipeline = DetectionPipeline::kSerial;
};

RunResult RunHalo(int nodes, ProtocolKind protocol, const BarrierVariant& v,
                  int epochs = 3) {
  DsmOptions options = BaseOptions(nodes, protocol);
  options.barrier_tree = v.tree;
  options.barrier_fanout = v.fanout;
  options.detection_pipeline = v.pipeline;
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(
      system, "halo", static_cast<size_t>(nodes) * kWordsPerPage);
  return system.Run([&](NodeContext& ctx) { HaloApp(ctx, data, epochs); });
}

class TreeBarrierEquivalenceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(TreeBarrierEquivalenceTest, TreeMatchesFlatBitForBit) {
  constexpr int kNodes = 8;
  constexpr int kEpochs = 3;
  const RunResult flat = RunHalo(kNodes, GetParam(), BarrierVariant{});
  // The workload's race population is exact; guard the baseline itself.
  EXPECT_EQ(flat.races.size(), static_cast<size_t>(kNodes) * kEpochs);
  const auto expected = ReportKey(flat);

  constexpr DetectionPipeline kSerial = DetectionPipeline::kSerial;
  constexpr DetectionPipeline kDistributed = DetectionPipeline::kDistributed;
  for (const BarrierVariant& v :
       {BarrierVariant{true, 2, kSerial},         // Deep binary tree.
        BarrierVariant{true, 3, kSerial},         // Uneven last level.
        BarrierVariant{true, 8, kSerial},         // Degenerate one-level star.
        BarrierVariant{true, 2, kDistributed},    // Interned ships, deep tree.
        BarrierVariant{true, 3, kDistributed}}) { // Interned ships, uneven tree.
    const RunResult result = RunHalo(kNodes, GetParam(), v);
    EXPECT_EQ(ReportKey(result), expected)
        << "fanout " << v.fanout << " pipeline " << static_cast<int>(v.pipeline);
    if (v.pipeline == kDistributed) {
      // Every epoch redirties the same words, so later epochs' ships hit
      // the interning cache.
      EXPECT_GT(result.intern.hits, 0u) << "fanout " << v.fanout;
    }
  }
}

// The tree reroutes barrier and check-list traffic only. Pin the per-kind
// message counts that are deterministic functions of the synchronization
// structure: the detection-round kinds (driven by the check list, which is
// bit-identical by the test above), the eager push/ack kinds, locks (none
// here), and the barrier kinds themselves. Page-fault kinds (PageRequest,
// DiffFlush, ...) are excluded deliberately — their counts vary run-to-run
// even flat-vs-flat, because intra-epoch fault interleavings are scheduled
// by real threads (a fault races the neighbor's invalidation, ownership
// migration adds forwarding hops). That jitter is not a property of the
// barrier design.
TEST_P(TreeBarrierEquivalenceTest, DeterministicTrafficUnchanged) {
  constexpr int kNodes = 8;
  constexpr int kEpochs = 3;
  const RunResult flat = RunHalo(kNodes, GetParam(), BarrierVariant{});
  const RunResult tree = RunHalo(kNodes, GetParam(), BarrierVariant{true, 3});
  const auto count = [](const RunResult& r, const char* kind) -> uint64_t {
    const auto it = r.net.messages_by_kind.find(kind);
    return it == r.net.messages_by_kind.end() ? 0 : it->second;
  };
  for (const char* kind : {"BitmapRequest", "BitmapReply", "CompareRequest",
                           "BitmapShip", "CompareReply", "ErcUpdate", "ErcAck",
                           "LockRequest", "LockGrant"}) {
    EXPECT_EQ(count(flat, kind), count(tree, kind)) << "kind " << kind;
  }
  // The flat barrier kinds are fully replaced by the tree kinds: one arrive
  // and one release per non-root node per epoch in both shapes (the tree
  // moves hops and bytes, not the handshake count).
  const uint64_t handshakes = static_cast<uint64_t>(kNodes - 1) * kEpochs;
  EXPECT_EQ(count(flat, "BarrierArrive"), handshakes);
  EXPECT_EQ(count(flat, "BarrierTreeArrive"), 0u);
  EXPECT_EQ(count(tree, "BarrierArrive"), 0u);
  EXPECT_EQ(count(tree, "BarrierTreeArrive"), handshakes);
  EXPECT_EQ(count(tree, "BarrierTreeRelease"), handshakes);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, TreeBarrierEquivalenceTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc,
                                           ProtocolKind::kEagerRcInvalidate));

// The interest set a tree arrival lists is built from the page table's
// cached-page list and the node's home stride. It must equal the full scan
// it replaced — every page that is home, valid, or holds data — at every
// barrier, under every protocol, for a deep tree (fanout 2) and a one-level
// one (fanout n-1).
Bitmap FullScanInterest(const PageTable& pages, NodeId self, int num_nodes) {
  Bitmap interest(static_cast<uint32_t>(pages.num_pages()));
  for (PageId page = 0; page < pages.num_pages(); ++page) {
    const PageEntry& entry = pages.entry(page);
    if (page % num_nodes == self || entry.state != PageState::kInvalid ||
        !entry.data.empty()) {
      interest.Set(static_cast<uint32_t>(page));
    }
  }
  return interest;
}

class TreeInterestTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, int /*fanout*/>> {};

TEST_P(TreeInterestTest, CachedListPlusHomesEqualsFullScan) {
  constexpr int kNodes = 8;
  constexpr int kEpochs = 6;
  constexpr size_t kPages = 40;
  const auto [protocol, fanout_param] = GetParam();
  const int fanout = fanout_param == 0 ? kNodes - 1 : fanout_param;
  DsmOptions options = BaseOptions(kNodes, protocol);
  options.barrier_tree = true;
  options.barrier_fanout = fanout;
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", kPages * kWordsPerPage);
  std::atomic<int> checks{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> beyond_homes{0};  // Checks whose set held a non-home page.
  auto check = [&](NodeContext& ctx) {
    const PageTable& pages = ctx.page_table();
    const std::vector<uint32_t> fast =
        BarrierCoordinator::TreeInterest(pages, ctx.id(), kNodes).SetBits();
    const std::vector<uint32_t> full = FullScanInterest(pages, ctx.id(), kNodes).SetBits();
    ++checks;
    if (fast != full) {
      ++mismatches;
    }
    const size_t homes = (static_cast<size_t>(pages.num_pages()) + kNodes - 1 - ctx.id()) / kNodes;
    if (fast.size() > homes) {
      ++beyond_homes;
    }
  };
  system.Run([&](NodeContext& ctx) {
    const int id = ctx.id();
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      // Writes and reads that move pages between nodes every epoch, plus a
      // lock-protected counter page that travels with the lock.
      const size_t written = static_cast<size_t>(id * 5 + epoch) % kPages;
      const size_t read = static_cast<size_t>(id * 7 + 3 * epoch + 1) % kPages;
      data.Set(ctx, written * kWordsPerPage + static_cast<size_t>(id), epoch);
      (void)data.Get(ctx, read * kWordsPerPage + 8);
      ctx.Lock(id % 3);
      const size_t counter = (kPages - 1 - static_cast<size_t>(id % 3)) * kWordsPerPage;
      data.Set(ctx, counter, data.Get(ctx, counter) + 1);
      ctx.Unlock(id % 3);
      check(ctx);
      ctx.Barrier();
    }
    check(ctx);
  });
  EXPECT_EQ(checks.load(), kNodes * (kEpochs + 1));
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(beyond_homes.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsBothShapes, TreeInterestTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kSingleWriterLrc,
                                         ProtocolKind::kMultiWriterHomeLrc,
                                         ProtocolKind::kEagerRcInvalidate),
                       ::testing::Values(2, 0 /* n-1: a one-level tree */)),
    [](const ::testing::TestParamInfo<std::tuple<ProtocolKind, int>>& param_info) {
      const int fanout = std::get<1>(param_info.param);
      return std::string(ProtocolKindName(std::get<0>(param_info.param))) +
             (fanout == 0 ? "_OneLevel" : "_Fanout" + std::to_string(fanout));
    });

// A deeper tree at a bigger cluster: 64 nodes, fanout 4 gives three interior
// levels, exercising multi-hop fragment claiming and interest-filtered
// release propagation. One protocol keeps the runtime modest.
TEST(TreeBarrierScaleTest, SixtyFourNodesThreeLevels) {
  constexpr int kNodes = 64;
  const RunResult flat =
      RunHalo(kNodes, ProtocolKind::kSingleWriterLrc, BarrierVariant{}, 2);
  const RunResult tree =
      RunHalo(kNodes, ProtocolKind::kSingleWriterLrc, BarrierVariant{true, 4}, 2);
  EXPECT_EQ(flat.races.size(), static_cast<size_t>(kNodes) * 2);
  EXPECT_EQ(ReportKey(tree), ReportKey(flat));
  // The headline property: aggregation keeps barrier bytes well below the
  // flat all-to-master broadcast at this size.
  EXPECT_LT(tree.net.bytes, flat.net.bytes);
}

}  // namespace
}  // namespace cvm
