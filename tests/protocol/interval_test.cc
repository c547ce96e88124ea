// Tests for interval records, the interval log (unseen queries, GC), and
// the per-node bitmap store.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/common/rng.h"
#include "src/protocol/interval.h"

namespace cvm {
namespace {

IntervalRecord MakeRecord(NodeId node, IntervalIndex index, std::vector<PageId> writes = {},
                          std::vector<PageId> reads = {}) {
  IntervalRecord r;
  r.id = IntervalId{node, index};
  r.vc = VectorClock(4);
  r.vc.Set(node, index);
  r.write_pages = std::move(writes);
  r.read_pages = std::move(reads);
  return r;
}

RecordRef MakeRef(NodeId node, IntervalIndex index, std::vector<PageId> writes = {},
                  std::vector<PageId> reads = {}) {
  return std::make_shared<const IntervalRecord>(
      MakeRecord(node, index, std::move(writes), std::move(reads)));
}

TEST(IntervalRecordTest, PageMembershipAndSizes) {
  IntervalRecord r = MakeRecord(1, 3, {5, 9}, {2});
  EXPECT_TRUE(r.WritesPage(5));
  EXPECT_TRUE(r.WritesPage(9));
  EXPECT_FALSE(r.WritesPage(2));
  EXPECT_TRUE(r.ReadsPage(2));
  EXPECT_EQ(r.ReadNoticeByteSize(), sizeof(PageId));
  EXPECT_EQ(r.ByteSize(), r.BaseByteSize() + sizeof(PageId));
}

TEST(IntervalLogTest, UnseenByReturnsExactlyTheUnseen) {
  IntervalLog log(4);
  log.Insert(MakeRef(0, 0));
  log.Insert(MakeRef(0, 1));
  log.Insert(MakeRef(1, 0));
  log.Insert(MakeRef(2, 0));

  VectorClock vc(4);
  vc.Set(0, 0);  // Seen node 0 through interval 0; nothing else.
  const auto unseen = log.UnseenBy(vc);
  ASSERT_EQ(unseen.size(), 3u);
  EXPECT_EQ(unseen[0]->id, (IntervalId{0, 1}));
  EXPECT_EQ(unseen[1]->id, (IntervalId{1, 0}));
  EXPECT_EQ(unseen[2]->id, (IntervalId{2, 0}));
}

TEST(IntervalLogTest, QueriesReturnTheInsertedObjects) {
  IntervalLog log(3);
  const RecordRef a = MakeRef(0, 0, {1}, {2});
  const RecordRef b = MakeRef(1, 4, {3});
  const RecordRef c = MakeRef(2, 1);
  log.Insert(c);
  log.Insert(a);
  log.Insert(b);

  const std::vector<RecordRef> all = log.AllRefs();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].get(), a.get());  // Per node, ascending index.
  EXPECT_EQ(all[1].get(), b.get());
  EXPECT_EQ(all[2].get(), c.get());

  VectorClock vc(3);
  vc.Set(0, 0);
  const std::vector<RecordRef> unseen = log.UnseenBy(vc);
  ASSERT_EQ(unseen.size(), 2u);
  EXPECT_EQ(unseen[0].get(), b.get());
  EXPECT_EQ(unseen[1].get(), c.get());
  EXPECT_EQ(log.Find(IntervalId{1, 4}), b.get());

  // The by-value view is a deep copy of the same records.
  const std::vector<IntervalRecord> copies = log.All();
  ASSERT_EQ(copies.size(), 3u);
  EXPECT_EQ(copies[0].id, a->id);
  EXPECT_EQ(copies[0].read_pages, a->read_pages);
  EXPECT_NE(&copies[0], a.get());
}

TEST(IntervalLogTest, SecondLogSharesTheRecordAndOutlivesTheFirstsGc) {
  IntervalLog sender(2);
  IntervalLog receiver(2);
  sender.Insert(MakeRef(0, 0, {5}, {6}));
  sender.Insert(MakeRef(1, 3, {7}));

  // What a message does: carry the sender's refs into the receiver's log.
  for (const RecordRef& record : sender.AllRefs()) {
    receiver.Insert(record);
  }
  const IntervalRecord* shared = sender.Find(IntervalId{0, 0});
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(receiver.Find(IntervalId{0, 0}), shared);  // Shared, not copied.
  EXPECT_EQ(receiver.Find(IntervalId{1, 3}), sender.Find(IntervalId{1, 3}));

  // GC on the sender leaves the receiver's share intact.
  VectorClock done(2);
  done.Set(0, 0);
  done.Set(1, 3);
  sender.DiscardDominatedBy(done);
  EXPECT_EQ(sender.size(), 0u);
  const IntervalRecord* kept = receiver.Find(IntervalId{0, 0});
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept, shared);
  EXPECT_EQ(kept->write_pages, (std::vector<PageId>{5}));
  EXPECT_EQ(kept->read_pages, (std::vector<PageId>{6}));
  EXPECT_EQ(receiver.AllRefs()[0].use_count(), 2);  // The log's + this copy.

  // Pooled nodes re-used by the sender must not disturb the receiver.
  sender.Insert(MakeRef(0, 1, {9}));
  EXPECT_EQ(receiver.Find(IntervalId{0, 0})->write_pages, (std::vector<PageId>{5}));
}

TEST(IntervalLogTest, InsertIsIdempotent) {
  IntervalLog log(2);
  const RecordRef first = MakeRef(0, 0, {1});
  log.Insert(first);
  log.Insert(MakeRef(0, 0, {2}));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.Find(IntervalId{0, 0}), first.get());  // The first one stays.
}

TEST(IntervalLogTest, GarbageCollectionDropsDominated) {
  IntervalLog log(2);
  log.Insert(MakeRef(0, 0));
  log.Insert(MakeRef(0, 1));
  log.Insert(MakeRef(1, 2));
  VectorClock merged(2);
  merged.Set(0, 0);
  merged.Set(1, 2);
  log.DiscardDominatedBy(merged);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.Contains(IntervalId{0, 1}));
  EXPECT_FALSE(log.Contains(IntervalId{1, 2}));
}

TEST(BitmapStoreTest, RecordsLazilyAndFindsPairs) {
  BitmapStore store(256);
  EXPECT_TRUE(store.RecordRead(0, 3, 17));   // First read of (0, page 3).
  EXPECT_FALSE(store.RecordRead(0, 3, 18));  // Not the first anymore.
  EXPECT_TRUE(store.RecordWrite(0, 3, 17));  // First write still reports true.
  const PageAccessBitmaps* pair = store.Find(0, 3);
  ASSERT_NE(pair, nullptr);
  EXPECT_TRUE(pair->read.Test(17));
  EXPECT_TRUE(pair->read.Test(18));
  EXPECT_TRUE(pair->write.Test(17));
  EXPECT_FALSE(pair->write.Test(18));
  EXPECT_EQ(store.Find(0, 4), nullptr);
  EXPECT_EQ(store.Find(1, 3), nullptr);
  EXPECT_EQ(store.TotalPairsRecorded(), 1u);
}

TEST(BitmapStoreTest, DiscardThroughDropsCheckedEpochs) {
  BitmapStore store(64);
  store.RecordRead(0, 0, 1);
  store.RecordRead(1, 0, 1);
  store.RecordRead(5, 2, 1);
  EXPECT_EQ(store.RetainedPairs(), 3u);
  store.DiscardThrough(1);
  EXPECT_EQ(store.RetainedPairs(), 1u);
  EXPECT_EQ(store.Find(0, 0), nullptr);
  EXPECT_NE(store.Find(5, 2), nullptr);
  // Total recorded is cumulative (Table 3 denominator), not retained.
  EXPECT_EQ(store.TotalPairsRecorded(), 3u);
}

TEST(BitmapStoreTest, ForEachPairVisitsEverything) {
  BitmapStore store(64);
  store.RecordWrite(2, 7, 0);
  store.RecordRead(3, 1, 5);
  int visits = 0;
  store.ForEachPair(9, [&](const IntervalId& id, PageId page, const PageAccessBitmaps&) {
    EXPECT_EQ(id.node, 9);
    EXPECT_TRUE((id.index == 2 && page == 7) || (id.index == 3 && page == 1));
    ++visits;
  });
  EXPECT_EQ(visits, 2);
}

TEST(BitmapStoreTest, RollbackReusingAnIntervalIndexStartsFresh) {
  BitmapStore store(64);
  EXPECT_TRUE(store.RecordRead(5, 2, 1));
  EXPECT_TRUE(store.RecordWrite(5, 2, 1));
  // Rollback to a cut that retained nothing, then interval 5 again: the
  // page's cached slot must not claim the read/write were already seen.
  store.Clear();
  EXPECT_EQ(store.Find(5, 2), nullptr);
  EXPECT_TRUE(store.RecordRead(5, 2, 3));
  EXPECT_TRUE(store.RecordWrite(5, 2, 3));
  EXPECT_FALSE(store.Find(5, 2)->read.Test(1));
  // A restore overwrites the pair: its bits now decide "first access".
  PageAccessBitmaps restored{Bitmap(64), Bitmap(64)};
  restored.write.Set(9);
  store.RestorePair(5, 2, restored);
  EXPECT_TRUE(store.RecordRead(5, 2, 4));
  EXPECT_FALSE(store.RecordWrite(5, 2, 4));
  EXPECT_EQ(store.TotalPairsRecorded(), 2u);
}

// Differential test of the per-page slot cache: seeded random sequences of
// recordings, discards, clears and checkpoint rollbacks (which bring back an
// older interval index) against a plain std::map model of the store.
TEST(BitmapStoreTest, MatchesMapModelUnderRandomSequences) {
  constexpr uint32_t kWords = 64;
  constexpr PageId kPages = 24;
  struct PairModel {
    std::set<uint32_t> read;
    std::set<uint32_t> write;
  };
  using Model = std::map<std::pair<IntervalIndex, PageId>, PairModel>;
  auto to_bitmaps = [](const PairModel& pair) {
    PageAccessBitmaps bitmaps{Bitmap(kWords), Bitmap(kWords)};
    for (uint32_t word : pair.read) {
      bitmaps.read.Set(word);
    }
    for (uint32_t word : pair.write) {
      bitmaps.write.Set(word);
    }
    return bitmaps;
  };
  auto matches = [](const Bitmap& bitmap, const std::set<uint32_t>& words) {
    const std::vector<uint32_t> bits = bitmap.SetBits();
    return std::set<uint32_t>(bits.begin(), bits.end()) == words;
  };

  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    BitmapStore store(kWords);
    Model model;
    uint64_t total = 0;
    IntervalIndex current = 0;
    IntervalIndex checkpoint_interval = 0;
    Model checkpoint;

    for (int step = 0; step < 600; ++step) {
      const uint64_t op = rng.Below(100);
      if (op < 70) {
        // Mostly the current interval; now and then a recent one.
        const IntervalIndex interval =
            rng.Below(8) == 0 ? static_cast<IntervalIndex>(rng.Range(0, current)) : current;
        // Mostly a few hot pages, so slots hit; sometimes any page.
        const PageId page = static_cast<PageId>(rng.Below(4) == 0 ? rng.Below(kPages)
                                                                  : rng.Below(3));
        const auto word = static_cast<uint32_t>(rng.Below(kWords));
        const bool is_write = rng.Below(3) == 0;
        const auto key = std::make_pair(interval, page);
        const bool created = model.find(key) == model.end();
        total += created ? 1 : 0;
        std::set<uint32_t>& words = is_write ? model[key].write : model[key].read;
        const bool expect_first = words.empty();
        words.insert(word);
        const bool first = is_write ? store.RecordWrite(interval, page, word)
                                    : store.RecordRead(interval, page, word);
        ASSERT_EQ(first, expect_first) << "step " << step;
      } else if (op < 82) {
        ++current;  // Interval boundary.
      } else if (op < 88) {
        const auto up_to = static_cast<IntervalIndex>(rng.Range(-1, current));
        store.DiscardThrough(up_to);
        model.erase(model.begin(), model.upper_bound(std::make_pair(
                                       up_to, std::numeric_limits<PageId>::max())));
      } else if (op < 93) {
        checkpoint = model;  // Barrier: capture the consistent cut.
        checkpoint_interval = ++current;
      } else if (op < 97) {
        // Rollback: clear, restore the cut, resume at its (older) interval.
        store.Clear();
        for (const auto& [key, pair] : checkpoint) {
          store.RestorePair(key.first, key.second, to_bitmaps(pair));
        }
        model = checkpoint;
        current = checkpoint_interval;
      } else {
        store.Clear();
        model.clear();
      }

      ASSERT_EQ(store.RetainedPairs(), model.size()) << "step " << step;
      ASSERT_EQ(store.TotalPairsRecorded(), total) << "step " << step;
      for (int probe = 0; probe < 4; ++probe) {
        const auto interval = static_cast<IntervalIndex>(rng.Range(0, current));
        const auto page = static_cast<PageId>(rng.Below(kPages));
        const PageAccessBitmaps* found = store.Find(interval, page);
        auto it = model.find(std::make_pair(interval, page));
        ASSERT_EQ(found != nullptr, it != model.end()) << "step " << step;
        if (found != nullptr) {
          ASSERT_TRUE(matches(found->read, it->second.read)) << "step " << step;
          ASSERT_TRUE(matches(found->write, it->second.write)) << "step " << step;
        }
      }
    }
    size_t visited = 0;
    store.ForEachPair(0, [&](const IntervalId& id, PageId page, const PageAccessBitmaps& pair) {
      auto it = model.find(std::make_pair(id.index, page));
      ASSERT_NE(it, model.end());
      EXPECT_TRUE(matches(pair.read, it->second.read));
      EXPECT_TRUE(matches(pair.write, it->second.write));
      ++visited;
    });
    EXPECT_EQ(visited, model.size());
  }
}

}  // namespace
}  // namespace cvm
