// Generation-stamped bitmap interning, always on for the distributed
// pipeline's BitmapShip round: when a page's access bitmap is unchanged
// since the last epoch it crossed the wire to the same node, the sender
// ships a 'same as before' token instead of the full payload, unless that
// payload encodes smaller than the token. The cache must be invisible to the
// detector — race reports identical to the serial pipeline, which never
// interns — its hit/miss/invalidation accounting must follow the workload's
// redirty pattern, and it must never ship more bytes than compression alone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"
#include "src/race/bitmap_codec.h"

namespace cvm {
namespace {

constexpr uint64_t kPageSize = 256;
constexpr int kWordsPerPage = static_cast<int>(kPageSize / sizeof(int32_t));
constexpr int kNodes = 6;
constexpr int kEpochs = 4;

// steady: every epoch each node touches exactly the same words of its
// neighbor's page, so from the second epoch on the shipped bitmaps are
// byte-identical to the cached ones (hits). drifting: the racing word
// moves every epoch, so re-shipments find a stale cache entry
// (invalidations).
enum class Redirty { kSteady, kDrifting };

// Which words of its own page a node writes every epoch, i.e. how its
// write bitmap encodes (64 words per page, 9-byte interned token):
// block: words 0..5, one run, 9 bytes, a tie with the token;
// scattered: the even words 0..10, 13 bytes raw, wider than the token;
// race word: word 2 alone, 7 bytes sparse, narrower than the token.
enum class OwnerWrites { kBlock, kScattered, kRaceWordOnly };

RunResult RunHalo(Redirty redirty, DetectionPipeline pipeline = DetectionPipeline::kDistributed,
                  OwnerWrites owner_writes = OwnerWrites::kBlock) {
  DsmOptions options;
  options.num_nodes = kNodes;
  options.page_size = kPageSize;
  options.max_shared_bytes = kNodes * kPageSize + (1 << 16);
  options.detection_pipeline = pipeline;
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(
      system, "halo", static_cast<size_t>(kNodes) * kWordsPerPage);
  return system.Run([&](NodeContext& ctx) {
    const int id = ctx.id();
    const size_t own = static_cast<size_t>(id) * kWordsPerPage;
    const size_t next =
        static_cast<size_t>((id + 1) % kNodes) * kWordsPerPage;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      const int race_word =
          redirty == Redirty::kSteady ? 2 : 2 + epoch;  // Drift moves the bit.
      switch (owner_writes) {
        case OwnerWrites::kBlock:
          for (int w = 0; w < 2 + kEpochs; ++w) {  // Covers every drifted target.
            data.Set(ctx, own + w, id * 100 + epoch * 10 + w);
          }
          break;
        case OwnerWrites::kScattered:
          for (int w = 0; w < 12; w += 2) {
            data.Set(ctx, own + w, id * 100 + epoch * 10 + w);
          }
          break;
        case OwnerWrites::kRaceWordOnly:
          data.Set(ctx, own + race_word, id * 100 + epoch * 10);
          break;
      }
      data.Set(ctx, next + race_word, id);  // W/W race with the owner.
      if (epoch + 1 < kEpochs) {
        ctx.Barrier();
      }
    }
  });
}

std::vector<std::string> ReportKey(const RunResult& result) {
  std::vector<std::string> key;
  key.reserve(result.races.size());
  for (const RaceReport& report : result.races) {
    key.push_back(report.ToString());
  }
  return key;
}

TEST(BitmapInternTest, ReportsIdenticalToSerial) {
  for (Redirty redirty : {Redirty::kSteady, Redirty::kDrifting}) {
    const RunResult serial = RunHalo(redirty, DetectionPipeline::kSerial);
    const RunResult distributed = RunHalo(redirty);
    EXPECT_EQ(serial.races.size(), static_cast<size_t>(kNodes) * kEpochs);
    EXPECT_EQ(ReportKey(distributed), ReportKey(serial));
    // Compressed and interned ships stay below their raw-encoding cost.
    EXPECT_LT(distributed.pipeline.bitmap_bytes_wire, distributed.pipeline.bitmap_bytes_raw);
  }
  for (OwnerWrites owner_writes : {OwnerWrites::kScattered, OwnerWrites::kRaceWordOnly}) {
    const RunResult serial =
        RunHalo(Redirty::kSteady, DetectionPipeline::kSerial, owner_writes);
    const RunResult distributed =
        RunHalo(Redirty::kSteady, DetectionPipeline::kDistributed, owner_writes);
    EXPECT_EQ(serial.races.size(), static_cast<size_t>(kNodes) * kEpochs);
    EXPECT_EQ(ReportKey(distributed), ReportKey(serial));
  }
}

TEST(BitmapInternTest, SteadyRedirtyHitsAfterFirstEpoch) {
  const RunResult result = RunHalo(Redirty::kSteady);
  // First shipment of each (node, page, rw) slot is a miss; identical
  // re-shipments in later epochs are hits; nothing ever changes shape.
  EXPECT_GT(result.intern.misses, 0u);
  EXPECT_GT(result.intern.hits, 0u);
  EXPECT_EQ(result.intern.invalidations, 0u);
  // The owner's block encodes to exactly the token's size: ties ship the
  // token, which saves nothing.
  EXPECT_EQ(result.intern.bytes_saved, 0u);
}

TEST(BitmapInternTest, HitsOnWideBitmapsSaveWireBytes) {
  const RunResult result =
      RunHalo(Redirty::kSteady, DetectionPipeline::kDistributed, OwnerWrites::kScattered);
  EXPECT_GT(result.intern.hits, 0u);
  EXPECT_EQ(result.intern.invalidations, 0u);
  // Only the owner's scattered write bitmap (raw, 13 bytes) is wider than
  // the 9-byte token, so every hit replaces exactly that encoding.
  EncodedBitmap token;
  token.encoding = BitmapEncoding::kInterned;
  const uint64_t saved_per_hit = EncodedBitmap::RawWireBytes(kWordsPerPage) - token.WireBytes();
  EXPECT_EQ(saved_per_hit, 4u);
  EXPECT_EQ(result.intern.bytes_saved, result.intern.hits * saved_per_hit);
}

TEST(BitmapInternTest, NarrowBitmapsShipTheirEncodingNotTheToken) {
  const RunResult result =
      RunHalo(Redirty::kSteady, DetectionPipeline::kDistributed, OwnerWrites::kRaceWordOnly);
  // Every shipped bitmap is unchanged after the first epoch but encodes
  // smaller than the token (empty read: 5 bytes, one-bit write: 7), so no
  // shipment becomes a token.
  EXPECT_GT(result.intern.misses, 0u);
  EXPECT_EQ(result.intern.hits, 0u);
  EXPECT_EQ(result.intern.invalidations, 0u);
  // Each entry (interval id + page id + read + write) then costs exactly
  // its compressed size, header + 12, against header + 26 raw.
  const uint64_t header = sizeof(IntervalId) + sizeof(PageId);
  const uint64_t raw_bitmaps = 2 * EncodedBitmap::RawWireBytes(kWordsPerPage);
  EXPECT_EQ(raw_bitmaps, 26u);
  EXPECT_GT(result.pipeline.bitmap_bytes_raw, 0u);
  EXPECT_EQ(result.pipeline.bitmap_bytes_wire * (header + raw_bitmaps),
            result.pipeline.bitmap_bytes_raw * (header + 12));
}

TEST(BitmapInternTest, DriftingRedirtyInvalidates) {
  const RunResult result = RunHalo(Redirty::kDrifting);
  // The racing bit moves every epoch: each re-shipment of a write bitmap
  // finds stale cached content and replaces it.
  EXPECT_GT(result.intern.misses, 0u);
  EXPECT_GT(result.intern.invalidations, 0u);
}

TEST(BitmapInternTest, SerialPipelineKeepsInternCountersZero) {
  const RunResult result = RunHalo(Redirty::kSteady, DetectionPipeline::kSerial);
  EXPECT_EQ(result.intern.hits, 0u);
  EXPECT_EQ(result.intern.misses, 0u);
  EXPECT_EQ(result.intern.invalidations, 0u);
  EXPECT_EQ(result.intern.bytes_saved, 0u);
}

}  // namespace
}  // namespace cvm
