// End-to-end equivalence of the two detection pipelines (§4 step 5,
// §6.2): for a deterministic racy workload, the distributed pipeline must
// report exactly the races the serial paper pipeline reports — same kinds,
// same words, same interval pairs — under every consistency protocol. The
// serial round ships raw bitmaps (wire bytes == raw bytes); the distributed
// round ships them compressed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace cvm {
namespace {

DsmOptions SmallOptions(int nodes, ProtocolKind protocol) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.page_size = 256;
  options.max_shared_bytes = 64 * 1024;
  options.protocol = protocol;
  return options;
}

// A deterministic barrier-phase workload with known W/W and R/W races plus
// false sharing that must NOT be reported: every node writes its own slot
// (false sharing on the page), everyone writes slot 0 (W/W), and node 1
// reads slot 2 which node 2 writes (R/W).
void RacyApp(NodeContext& ctx, SharedArray<int32_t>& data) {
  data.Set(ctx, ctx.id() + 8, ctx.id());  // Distinct words: false sharing.
  data.Set(ctx, 0, ctx.id());             // Same word: W/W race.
  if (ctx.id() == 1) {
    (void)data.Get(ctx, 2);  // Races with node 2's write below.
  }
  if (ctx.id() == 2) {
    data.Set(ctx, 2, 7);
  }
  ctx.Barrier();
  // A second epoch with no races: reads of data[0] ordered by the barrier.
  (void)data.Get(ctx, 0);
  ctx.Barrier();
}

// The canonical serialization the pipelines must agree on.
std::vector<std::string> ReportKey(const RunResult& result) {
  std::vector<std::string> key;
  key.reserve(result.races.size());
  for (const RaceReport& report : result.races) {
    key.push_back(report.ToString());
  }
  return key;
}

RunResult RunPipeline(ProtocolKind protocol, DetectionPipeline pipeline) {
  DsmOptions options = SmallOptions(4, protocol);
  options.detection_pipeline = pipeline;
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 64);
  RunResult result = system.Run([&](NodeContext& ctx) { RacyApp(ctx, data); });
  if (pipeline == DetectionPipeline::kSerial) {
    // The paper's byte accounting: the serial round never compresses.
    EXPECT_GT(result.pipeline.bitmap_bytes_raw, 0u);
    EXPECT_EQ(result.pipeline.bitmap_bytes_wire, result.pipeline.bitmap_bytes_raw);
  }
  return result;
}

class PipelineEquivalenceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(PipelineEquivalenceTest, DistributedMatchesSerial) {
  const RunResult serial = RunPipeline(GetParam(), DetectionPipeline::kSerial);
  // The workload has known true races and cleared false sharing.
  EXPECT_FALSE(serial.races.empty());
  bool has_ww = false;
  for (const RaceReport& report : serial.races) {
    if (report.kind == RaceKind::kWriteWrite) {
      has_ww = true;
    }
    EXPECT_NE(report.word, 9u) << "per-node slots are false sharing, not races";
  }
  EXPECT_TRUE(has_ww);
  const RunResult distributed = RunPipeline(GetParam(), DetectionPipeline::kDistributed);
  EXPECT_EQ(ReportKey(distributed), ReportKey(serial));
  // Constituents actually did compare work on the master's behalf.
  EXPECT_GT(distributed.pipeline.remote_pairs_compared, 0u);
}

TEST_P(PipelineEquivalenceTest, DistributedShipsCompressedBitmaps) {
  const RunResult distributed = RunPipeline(GetParam(), DetectionPipeline::kDistributed);
  // bitmap_bytes_raw models the legacy full-page payloads of the same
  // entries; on these skewed bitmaps the codec must strictly win.
  EXPECT_GT(distributed.pipeline.bitmap_bytes_raw, 0u);
  EXPECT_LT(distributed.pipeline.bitmap_bytes_wire, distributed.pipeline.bitmap_bytes_raw);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, PipelineEquivalenceTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc,
                                           ProtocolKind::kEagerRcInvalidate));

// A contention-free two-epoch workload whose message pattern is fully
// deterministic under the home-based multi-writer protocol (no ownership
// migration, so no scheduling-dependent forwarding): epoch 0, every node
// writes its own home page (no traffic) plus a private word of one shared
// page (base-copy fetch from the home + diff flush back — and concurrent
// write overlap, so the barrier master runs a real bitmap round); epoch 1,
// every node reads its right neighbour's page. No locks, no races — so
// per-sender counts are reproducible, not just totals.
void NeighborReadApp(NodeContext& ctx, int num_nodes, uint64_t page_size) {
  const GlobalAddr own = static_cast<GlobalAddr>(ctx.id()) * page_size;
  ctx.Write<int32_t>(own, 100 + ctx.id());
  const GlobalAddr shared = static_cast<GlobalAddr>(num_nodes) * page_size +
                            static_cast<GlobalAddr>(ctx.id()) * kWordSize;
  ctx.Write<int32_t>(shared, 200 + ctx.id());  // False sharing, not a race.
  ctx.Barrier();
  const GlobalAddr neighbor =
      static_cast<GlobalAddr>((ctx.id() + 1) % num_nodes) * page_size;
  EXPECT_EQ(ctx.Read<int32_t>(neighbor), 100 + (ctx.id() + 1) % num_nodes);
  ctx.Barrier();
}

NetworkStats RunNeighborRead(DetectionPipeline pipeline) {
  DsmOptions options = SmallOptions(4, ProtocolKind::kMultiWriterHomeLrc);
  options.detection_pipeline = pipeline;
  DsmSystem system(options);
  // One page per node, plus the falsely-shared page.
  (void)system.Alloc("pages", (options.num_nodes + 1) * options.page_size, true);
  const RunResult result = system.Run([&](NodeContext& ctx) {
    NeighborReadApp(ctx, options.num_nodes, options.page_size);
  });
  EXPECT_TRUE(result.races.empty());
  if (pipeline == DetectionPipeline::kSerial) {
    EXPECT_EQ(result.pipeline.bitmap_bytes_wire, result.pipeline.bitmap_bytes_raw);
  }
  // The falsely-shared page forces a real detection round to equate.
  EXPECT_GT(result.net.messages_by_kind.count("BitmapRequest") +
                result.net.messages_by_kind.count("CompareRequest"),
            0u);
  return result.net;
}

// Distributing the compare step changes only the detection round's traffic
// (CompareRequest/BitmapShip/CompareReply replace part of the bitmap
// retrieval); application and synchronization traffic per sender must not
// move.
TEST(PipelineWireEquivalenceTest, DistributedChangesOnlyDetectionTraffic) {
  const NetworkStats serial = RunNeighborRead(DetectionPipeline::kSerial);
  const NetworkStats distributed = RunNeighborRead(DetectionPipeline::kDistributed);
  const std::vector<std::string> detection_kinds = {
      "BitmapRequest", "BitmapReply", "CompareRequest", "BitmapShip", "CompareReply"};
  auto strip = [&](NetworkStats stats) {
    for (const std::string& kind : detection_kinds) {
      stats.messages_by_kind.erase(kind);
      stats.bytes_by_kind.erase(kind);
    }
    return stats;
  };
  const NetworkStats a = strip(serial);
  const NetworkStats b = strip(distributed);
  EXPECT_EQ(a.messages_by_kind, b.messages_by_kind);
  EXPECT_EQ(a.bytes_by_kind, b.bytes_by_kind);
}

// The coordinator is reachable (and meaningful) through the layered API:
// the master's BarrierCoordinator owns the pipeline statistics the run
// result republishes.
TEST(PipelineWireEquivalenceTest, BarrierCoordinatorExposesPipelineStats) {
  DsmOptions options = SmallOptions(4, ProtocolKind::kSingleWriterLrc);
  options.detection_pipeline = DetectionPipeline::kDistributed;
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 64);
  const RunResult result = system.Run([&](NodeContext& ctx) { RacyApp(ctx, data); });

  const PipelineStats& master = system.node(0).barrier_coordinator().pipeline_stats();
  EXPECT_EQ(master.detect_epochs, result.pipeline.detect_epochs);
  EXPECT_EQ(master.detect_ns, result.pipeline.detect_ns);
  EXPECT_EQ(master.remote_pairs_compared, result.pipeline.remote_pairs_compared);
  EXPECT_GT(master.detect_epochs, 0u);
  // Workers never run the pipeline; their coordinators stay idle.
  for (NodeId worker = 1; worker < 4; ++worker) {
    EXPECT_EQ(system.node(worker).barrier_coordinator().pipeline_stats().detect_epochs,
              0u);
  }
}

}  // namespace
}  // namespace cvm
