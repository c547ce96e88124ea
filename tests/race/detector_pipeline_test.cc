// Properties of the check-list build on randomized epochs: the two
// page-overlap probes (§6.2: page lists vs dense page bitmaps) must agree,
// the detector's persistent arena must not leak pairs between epochs, and
// the bitmap round must fetch exactly what the compares touch.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "src/race/detector.h"

namespace cvm {
namespace {

constexpr int kNumPages = 64;

// A randomized barrier epoch: `nodes` intervals with random page accesses
// and random happens-before edges (some intervals have "seen" others).
std::vector<IntervalRecord> RandomEpoch(std::mt19937& rng, int nodes) {
  std::vector<IntervalRecord> records;
  for (NodeId node = 0; node < nodes; ++node) {
    IntervalRecord r;
    const IntervalIndex index = 1 + rng() % 3;
    r.id = IntervalId{node, index};
    r.vc = VectorClock(nodes);
    r.vc.Set(node, index);
    // Random hb edges: each prior node's interval is "seen" with p = 1/3.
    for (NodeId seen = 0; seen < node; ++seen) {
      if (rng() % 3 == 0) {
        r.vc.Set(seen, records[seen].id.index);
      }
    }
    // Unique sorted page lists, matching what interval tracking produces.
    std::set<PageId> writes;
    for (int i = 0, n = rng() % 4; i < n; ++i) {
      writes.insert(rng() % kNumPages);
    }
    std::set<PageId> reads;
    for (int i = 0, n = rng() % 4; i < n; ++i) {
      reads.insert(rng() % kNumPages);
    }
    r.write_pages.assign(writes.begin(), writes.end());
    r.read_pages.assign(reads.begin(), reads.end());
    records.push_back(std::move(r));
  }
  return records;
}

bool SamePair(const CheckPair& x, const CheckPair& y) {
  return x.a.id == y.a.id && x.b.id == y.b.id && x.pages == y.pages;
}

// The check list is a pooled arena reused across epochs: a detector that
// has already built other epochs must return exactly what a fresh one
// builds (same pairs, same order, no stale tail), and its stats must grow
// by exactly the fresh detector's counts.
TEST(DetectorPipelineTest, ReusedDetectorMatchesFreshOne) {
  std::mt19937 rng(42);
  RaceDetector reused(kNumPages);
  for (int trial = 0; trial < 50; ++trial) {
    const int nodes = 2 + trial % 15;
    const auto epoch = RandomEpoch(rng, nodes);
    RaceDetector fresh(kNumPages);
    const std::vector<CheckPair> expected = fresh.BuildCheckList(epoch);
    const DetectorStats before = reused.stats();
    const std::vector<CheckPair>& got = reused.BuildCheckList(epoch);
    ASSERT_EQ(got.size(), expected.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SamePair(got[i], expected[i])) << "trial " << trial << " pair " << i;
    }
    const DetectorStats& after = reused.stats();
    EXPECT_EQ(after.interval_comparisons - before.interval_comparisons,
              fresh.stats().interval_comparisons);
    EXPECT_EQ(after.concurrent_pairs - before.concurrent_pairs, fresh.stats().concurrent_pairs);
    EXPECT_EQ(after.overlapping_pairs - before.overlapping_pairs,
              fresh.stats().overlapping_pairs);
    EXPECT_EQ(after.page_overlap_probes - before.page_overlap_probes,
              fresh.stats().page_overlap_probes);
    EXPECT_EQ(after.intervals_in_overlap - before.intervals_in_overlap,
              fresh.stats().intervals_in_overlap);
  }
}

TEST(DetectorPipelineTest, PageListsAndPageBitmapsAgree) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const int nodes = 2 + trial % 12;
    const auto epoch = RandomEpoch(rng, nodes);
    RaceDetector with_lists(kNumPages, OverlapMethod::kPageLists);
    RaceDetector with_bitmaps(kNumPages, OverlapMethod::kPageBitmaps);
    const auto lists = with_lists.BuildCheckList(epoch);
    const auto bitmaps = with_bitmaps.BuildCheckList(epoch);
    ASSERT_EQ(lists.size(), bitmaps.size()) << "trial " << trial;
    for (size_t i = 0; i < lists.size(); ++i) {
      EXPECT_TRUE(SamePair(lists[i], bitmaps[i])) << "trial " << trial << " pair " << i;
    }
    // Both probes see the same concurrent pairs; only the probe cost model
    // differs.
    EXPECT_EQ(with_lists.stats().concurrent_pairs, with_bitmaps.stats().concurrent_pairs);
    EXPECT_EQ(with_lists.stats().overlapping_pairs, with_bitmaps.stats().overlapping_pairs);
  }
}

TEST(DetectorPipelineTest, BitmapsNeededIsDeduplicatedAndOrdered) {
  std::mt19937 rng(99);
  const auto epoch = RandomEpoch(rng, 10);
  RaceDetector detector(kNumPages);
  const auto pairs = detector.BuildCheckList(epoch);
  const auto needed = RaceDetector::BitmapsNeeded(pairs);
  for (size_t i = 1; i < needed.size(); ++i) {
    EXPECT_LT(needed[i - 1], needed[i]) << "entries must be strictly increasing";
  }
}

TEST(DetectorPipelineTest, BitmapsNeededCoversEveryPairAndNothingElse) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto epoch = RandomEpoch(rng, 2 + trial % 10);
    RaceDetector detector(kNumPages);
    const auto pairs = detector.BuildCheckList(epoch);
    const auto needed = RaceDetector::BitmapsNeeded(pairs);
    const std::set<std::pair<IntervalId, PageId>> have(needed.begin(), needed.end());
    // Every (interval, page) bitmap a comparison will touch must be fetched...
    std::set<std::pair<IntervalId, PageId>> want;
    for (const CheckPair& pair : pairs) {
      for (PageId page : pair.pages) {
        want.insert({pair.a.id, page});
        want.insert({pair.b.id, page});
        EXPECT_TRUE(have.count({pair.a.id, page})) << "trial " << trial;
        EXPECT_TRUE(have.count({pair.b.id, page})) << "trial " << trial;
      }
    }
    // ...and nothing beyond that travels in the bitmap round.
    EXPECT_EQ(have, want) << "trial " << trial;
  }
}

}  // namespace
}  // namespace cvm
