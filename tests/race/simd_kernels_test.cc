// Differential tests for the hot-path kernels (src/perf/): the active
// word/SIMD face must be bit-identical to the scalar reference on every
// input — sizes straddling the vector-width boundaries, unaligned byte
// bases, randomized contents — because the report-equivalence and
// protocol-parity suites assume kernel adoption changed nothing observable.
//
// Also pins the steady-state allocation contract of the arena layer: once a
// workload repeats an epoch shape, the interval pools report zero new misses
// and the detector's dense-probe scratch is never rebuilt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/perf/arena.h"
#include "src/perf/kernels.h"
#include "src/perf/shared_vec.h"
#include "src/protocol/interval.h"
#include "src/race/detector.h"

namespace cvm {
namespace {

// Word counts covering every interesting boundary of the vector paths: the
// SSE2/NEON kernels consume 2 x 64-bit words per vector and unroll blocks of
// 4 words, so 0..9 plus the block edges and a large tail-heavy size.
const size_t kWordSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100};

std::vector<uint64_t> RandomWords(Rng& rng, size_t n, int density_percent) {
  std::vector<uint64_t> words(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Below(100) < static_cast<uint64_t>(density_percent)) {
      words[i] = rng.Next();
    }
  }
  return words;
}

TEST(SimdKernelsTest, TargetNameIsKnown) {
  const std::string target = perf::KernelTargetName();
  EXPECT_TRUE(target == "sse2" || target == "neon" || target == "word") << target;
}

TEST(SimdKernelsTest, AnyWordNonzeroMatchesScalar) {
  Rng rng(1);
  for (size_t n : kWordSizes) {
    for (int density : {0, 3, 50, 100}) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<uint64_t> w = RandomWords(rng, n, density);
        EXPECT_EQ(perf::AnyWordNonzero(w.data(), n),
                  perf::scalar::AnyWordNonzero(w.data(), n))
            << "n=" << n << " density=" << density;
      }
    }
  }
}

TEST(SimdKernelsTest, AnyWordNonzeroSingleBitAtEveryWord) {
  // The reduction must see every lane: one bit, placed in each word in turn.
  for (size_t n : {size_t{1}, size_t{4}, size_t{9}, size_t{17}}) {
    for (size_t hot = 0; hot < n; ++hot) {
      std::vector<uint64_t> w(n, 0);
      w[hot] = 1ull << (hot % 64);
      EXPECT_TRUE(perf::AnyWordNonzero(w.data(), n)) << "n=" << n << " hot=" << hot;
    }
    std::vector<uint64_t> zeros(n, 0);
    EXPECT_FALSE(perf::AnyWordNonzero(zeros.data(), n));
  }
}

TEST(SimdKernelsTest, AnyCommonBitMatchesScalar) {
  Rng rng(2);
  for (size_t n : kWordSizes) {
    for (int density : {0, 3, 25, 100}) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<uint64_t> a = RandomWords(rng, n, density);
        const std::vector<uint64_t> b = RandomWords(rng, n, density);
        EXPECT_EQ(perf::AnyCommonBit(a.data(), b.data(), n),
                  perf::scalar::AnyCommonBit(a.data(), b.data(), n))
            << "n=" << n << " density=" << density;
      }
    }
  }
}

TEST(SimdKernelsTest, AnyCommonBitSingleOverlapAtEveryWord) {
  for (size_t n : {size_t{1}, size_t{5}, size_t{16}, size_t{33}}) {
    for (size_t hot = 0; hot < n; ++hot) {
      std::vector<uint64_t> a(n, 0);
      std::vector<uint64_t> b(n, 0);
      a[hot] = 0xff00ull;
      b[hot] = 0x0100ull;  // One shared bit.
      EXPECT_TRUE(perf::AnyCommonBit(a.data(), b.data(), n)) << "n=" << n << " hot=" << hot;
      b[hot] = 0x00ffull;  // Disjoint within the same word.
      EXPECT_FALSE(perf::AnyCommonBit(a.data(), b.data(), n)) << "n=" << n << " hot=" << hot;
    }
  }
}

TEST(SimdKernelsTest, PopcountWordsMatchesScalar) {
  Rng rng(3);
  for (size_t n : kWordSizes) {
    const std::vector<uint64_t> w = RandomWords(rng, n, 60);
    EXPECT_EQ(perf::PopcountWords(w.data(), n), perf::scalar::PopcountWords(w.data(), n));
  }
}

TEST(SimdKernelsTest, UnionAndIntersectMatchScalar) {
  Rng rng(4);
  for (size_t n : kWordSizes) {
    const std::vector<uint64_t> src = RandomWords(rng, n, 40);
    const std::vector<uint64_t> base = RandomWords(rng, n, 40);

    std::vector<uint64_t> active = base;
    std::vector<uint64_t> reference = base;
    perf::UnionWords(active.data(), src.data(), n);
    perf::scalar::UnionWords(reference.data(), src.data(), n);
    EXPECT_EQ(active, reference) << "union n=" << n;

    active = base;
    reference = base;
    perf::IntersectWords(active.data(), src.data(), n);
    perf::scalar::IntersectWords(reference.data(), src.data(), n);
    EXPECT_EQ(active, reference) << "intersect n=" << n;
  }
}

TEST(SimdKernelsTest, AppendCommonBitsMatchesScalarInOrder) {
  Rng rng(5);
  for (size_t n : kWordSizes) {
    for (int density : {0, 5, 50}) {
      const std::vector<uint64_t> a = RandomWords(rng, n, density);
      const std::vector<uint64_t> b = RandomWords(rng, n, density);
      std::vector<uint32_t> active = {777};  // Appends must preserve a prefix.
      std::vector<uint32_t> reference = {777};
      perf::AppendCommonBits(a.data(), b.data(), n, &active);
      perf::scalar::AppendCommonBits(a.data(), b.data(), n, &reference);
      EXPECT_EQ(active, reference) << "n=" << n << " density=" << density;
      for (size_t i = 2; i < active.size(); ++i) {
        EXPECT_LT(active[i - 1], active[i]) << "not ascending at " << i;
      }
    }
  }
}

TEST(SimdKernelsTest, AppendSetBitsMatchesScalarInOrder) {
  Rng rng(6);
  for (size_t n : kWordSizes) {
    for (int density : {0, 5, 100}) {
      const std::vector<uint64_t> w = RandomWords(rng, n, density);
      std::vector<uint32_t> active;
      std::vector<uint32_t> reference;
      perf::AppendSetBits(w.data(), n, &active);
      perf::scalar::AppendSetBits(w.data(), n, &reference);
      EXPECT_EQ(active, reference) << "n=" << n << " density=" << density;
    }
  }
}

// 32-bit-word counts around the 4-words-per-vector boundary of the diff
// kernel, plus page-sized.
const size_t kWord32Sizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1024};

TEST(SimdKernelsTest, AppendUnequalWords32MatchesScalar) {
  Rng rng(7);
  for (size_t n32 : kWord32Sizes) {
    for (int flips : {0, 1, 5, 32}) {
      std::vector<uint8_t> a(n32 * 4);
      for (size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<uint8_t>(rng.Below(256));
      }
      std::vector<uint8_t> b = a;
      for (int f = 0; f < flips && n32 > 0; ++f) {
        b[rng.Below(n32) * 4 + rng.Below(4)] ^= static_cast<uint8_t>(1 + rng.Below(255));
      }
      std::vector<uint32_t> active;
      std::vector<uint32_t> reference;
      perf::AppendUnequalWords32(a.data(), b.data(), n32, &active);
      perf::scalar::AppendUnequalWords32(a.data(), b.data(), n32, &reference);
      EXPECT_EQ(active, reference) << "n32=" << n32 << " flips=" << flips;
    }
  }
}

TEST(SimdKernelsTest, AppendUnequalWords32UnalignedBases) {
  // Twins and frames are arbitrary vector storage; the kernel must not
  // assume 16-byte (or even 4-byte) aligned bases. Offset both operands by
  // every sub-word amount.
  Rng rng(8);
  const size_t n32 = 129;
  std::vector<uint8_t> raw_a(n32 * 4 + 8);
  std::vector<uint8_t> raw_b(n32 * 4 + 8);
  for (size_t off_a = 0; off_a < 4; ++off_a) {
    for (size_t off_b = 0; off_b < 4; ++off_b) {
      for (size_t i = 0; i < raw_a.size(); ++i) {
        raw_a[i] = static_cast<uint8_t>(rng.Below(256));
      }
      std::memcpy(raw_b.data() + off_b, raw_a.data() + off_a, n32 * 4);
      raw_b[off_b + 17 * 4] ^= 0x40;
      raw_b[off_b + 128 * 4 + 3] ^= 0x01;
      std::vector<uint32_t> active;
      std::vector<uint32_t> reference;
      perf::AppendUnequalWords32(raw_a.data() + off_a, raw_b.data() + off_b, n32, &active);
      perf::scalar::AppendUnequalWords32(raw_a.data() + off_a, raw_b.data() + off_b, n32,
                                         &reference);
      EXPECT_EQ(active, reference) << "off_a=" << off_a << " off_b=" << off_b;
      EXPECT_EQ(active, (std::vector<uint32_t>{17, 128}));
    }
  }
}

struct TestPair {
  uint32_t word = 0;
  uint32_t value = 0;
};

TEST(SimdKernelsTest, ScatterWords32AppliesAllInRangePairs) {
  std::vector<uint8_t> frame(64, 0);
  const std::vector<TestPair> pairs = {{0, 0x04030201u}, {7, 0xddccbbaau}, {15, 0xffffffffu}};
  EXPECT_EQ(perf::ScatterWords32(frame.data(), frame.size(), pairs.data(), pairs.size()),
            pairs.size());
  uint32_t value = 0;
  std::memcpy(&value, frame.data(), 4);
  EXPECT_EQ(value, 0x04030201u);
  std::memcpy(&value, frame.data() + 7 * 4, 4);
  EXPECT_EQ(value, 0xddccbbaau);
  std::memcpy(&value, frame.data() + 15 * 4, 4);
  EXPECT_EQ(value, 0xffffffffu);
}

TEST(SimdKernelsTest, ScatterWords32RejectsOutOfRangeBeforeWriting) {
  std::vector<uint8_t> frame(64, 0);
  // Second pair is out of range: the bounds pass must report index 1 and the
  // frame must be untouched (validation happens before any write).
  const std::vector<TestPair> pairs = {{0, 0x11111111u}, {16, 0x22222222u}};
  EXPECT_EQ(perf::ScatterWords32(frame.data(), frame.size(), pairs.data(), pairs.size()),
            size_t{1});
  EXPECT_EQ(std::count(frame.begin(), frame.end(), 0), 64);
}

// ---- Arena layer ----

TEST(ArenaTest, ObjectPoolRecyclesAndCapsFreeList) {
  perf::ObjectPool<std::vector<int>> pool(/*max_free=*/2);
  std::vector<int> a = pool.Acquire();
  EXPECT_EQ(pool.stats().misses, 1u);
  a.assign(100, 7);
  const int* storage = a.data();
  pool.Release(std::move(a));
  std::vector<int> reused = pool.Acquire();
  EXPECT_EQ(pool.stats().hits, 1u);
  // Same heap buffer came back: recycling, not reconstruction.
  EXPECT_EQ(reused.data(), storage);
  EXPECT_EQ(reused.size(), 100u);

  pool.Release(std::vector<int>());
  pool.Release(std::vector<int>());
  EXPECT_EQ(pool.free_count(), 2u);
  pool.Release(std::vector<int>());  // Over capacity: discarded.
  EXPECT_EQ(pool.free_count(), 2u);
  EXPECT_EQ(pool.stats().discards, 1u);
}

TEST(ArenaTest, FlatIdSetBehavesLikeSortedSetWithoutReallocating) {
  perf::FlatIdSet<PageId> set;
  EXPECT_TRUE(set.Insert(5));
  EXPECT_TRUE(set.Insert(1));
  EXPECT_TRUE(set.Insert(9));
  EXPECT_FALSE(set.Insert(5));  // Duplicate.
  EXPECT_EQ(set.Size(), 3u);
  EXPECT_TRUE(set.Contains(1));
  EXPECT_FALSE(set.Contains(2));
  EXPECT_EQ(set.ids(), (std::vector<PageId>{1, 5, 9}));  // Ascending, like std::set.

  const size_t capacity = set.Capacity();
  set.Clear();
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Capacity(), capacity);  // Clear keeps the buffer.
  EXPECT_TRUE(set.Insert(3));
  EXPECT_EQ(set.Capacity(), capacity);  // Steady-state insert: no realloc.
}

TEST(ArenaTest, BitmapStoreSteadyStateEpochIsAllPoolHits) {
  BitmapStore store(/*words_per_page=*/16);
  const int kPages = 8;
  // Epoch 1: first touch of every (interval, page) pair allocates.
  for (PageId page = 0; page < kPages; ++page) {
    store.RecordWrite(/*interval=*/0, page, /*word=*/3);
    store.RecordRead(/*interval=*/0, page, /*word=*/5);
  }
  const uint64_t warmup_misses = store.pair_pool_stats().misses;
  EXPECT_GT(warmup_misses, 0u);
  store.DiscardThrough(0);  // Epoch checked: pairs parked in the pool.
  EXPECT_EQ(store.RetainedPairs(), 0u);

  // Epochs 2..4 touch the same number of pages: every pair comes from the
  // pool, misses stay exactly flat — the zero-allocation contract.
  for (IntervalIndex interval = 1; interval <= 3; ++interval) {
    for (PageId page = 0; page < kPages; ++page) {
      EXPECT_TRUE(store.RecordWrite(interval, page, 3));
      EXPECT_TRUE(store.RecordRead(interval, page, 5));
    }
    EXPECT_EQ(store.pair_pool_stats().misses, warmup_misses);
    // Recycled bitmaps must read as freshly reset, not carry stale bits.
    const PageAccessBitmaps* pair = store.Find(interval, 0);
    ASSERT_NE(pair, nullptr);
    EXPECT_EQ(pair->write.popcount(), 1u);
    EXPECT_EQ(pair->read.popcount(), 1u);
    store.DiscardThrough(interval);
  }
  EXPECT_GT(store.pair_pool_stats().hits, 0u);
}

TEST(ArenaTest, IntervalLogSteadyStateInsertIsAllPoolHits) {
  const int kNodes = 4;
  IntervalLog log(kNodes);
  auto make_record = [&](NodeId node, IntervalIndex index) {
    IntervalRecord record;
    record.id = IntervalId{node, index};
    record.vc = VectorClock(kNodes);
    record.vc.Set(node, index);
    record.write_pages = {1, 2, 3};
    record.read_pages = {4, 5};
    return std::make_shared<const IntervalRecord>(std::move(record));
  };

  std::weak_ptr<const IntervalRecord> first;
  for (NodeId node = 0; node < kNodes; ++node) {
    RecordRef record = make_record(node, 0);
    if (node == 0) {
      first = record;
    }
    log.Insert(std::move(record));
  }
  const uint64_t warmup_misses = log.record_pool_stats().misses;
  VectorClock epoch_done(kNodes);
  for (NodeId node = 0; node < kNodes; ++node) {
    epoch_done.Set(node, 0);
  }
  log.DiscardDominatedBy(epoch_done);
  EXPECT_EQ(log.size(), 0u);
  // A parked map node holds no share of its old record.
  EXPECT_TRUE(first.expired());

  for (IntervalIndex index = 1; index <= 3; ++index) {
    for (NodeId node = 0; node < kNodes; ++node) {
      log.Insert(make_record(node, index));
    }
    EXPECT_EQ(log.record_pool_stats().misses, warmup_misses) << "epoch " << index;
    VectorClock done(kNodes);
    for (NodeId node = 0; node < kNodes; ++node) {
      done.Set(node, index);
    }
    log.DiscardDominatedBy(done);
  }
  EXPECT_GT(log.record_pool_stats().hits, 0u);
}

TEST(ArenaTest, DetectorOverlapScratchBuiltOncePerPageCount) {
  const int kNumPages = 64;
  RaceDetector detector(kNumPages, OverlapMethod::kPageBitmaps);
  std::vector<IntervalRecord> epoch;
  for (NodeId node = 0; node < 2; ++node) {
    IntervalRecord record;
    record.id = IntervalId{node, 0};
    record.vc = VectorClock(2);
    record.vc.Set(node, 0);
    record.write_pages = {static_cast<PageId>(3 + node), 7};
    epoch.push_back(record);
  }
  for (int run = 0; run < 5; ++run) {
    const auto pairs = detector.BuildCheckList(epoch);
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0].pages, (std::vector<PageId>{7}));
  }
  // Five epochs, one scratch build: steady-state probes allocate nothing.
  EXPECT_EQ(detector.stats().overlap_scratch_builds, 1u);
}

// ---- Zero-copy payload handle ----

TEST(SharedVecTest, SoleOwnerTakeMovesWithoutCopying) {
  std::vector<uint8_t> bytes(4096, 0xab);
  const uint8_t* storage = bytes.data();
  perf::SharedVec<uint8_t> handle(std::move(bytes));
  EXPECT_EQ(handle.use_count(), 1);
  EXPECT_EQ(handle.size(), 4096u);
  std::vector<uint8_t> taken = handle.TakeOrCopy();
  EXPECT_EQ(taken.data(), storage);  // Moved, not copied.
  EXPECT_TRUE(handle.empty());
}

TEST(SharedVecTest, SharedBufferTakeCopiesAndLeavesOthersIntact) {
  perf::SharedVec<uint8_t> original(std::vector<uint8_t>(512, 0x5a));
  perf::SharedVec<uint8_t> retransmit_hold = original;  // e.g. a held frame.
  EXPECT_EQ(original.use_count(), 2);
  std::vector<uint8_t> taken = original.TakeOrCopy();
  EXPECT_EQ(taken.size(), 512u);
  EXPECT_EQ(taken[0], 0x5a);
  // The hold still reads the full payload: the take deep-copied.
  EXPECT_EQ(retransmit_hold.size(), 512u);
  EXPECT_EQ((*retransmit_hold)[511], 0x5a);
  EXPECT_EQ(retransmit_hold.use_count(), 1);
}

TEST(SharedVecTest, EmptyHandleReadsAsEmptyVector) {
  perf::SharedVec<int> handle;
  EXPECT_TRUE(handle.empty());
  EXPECT_EQ(handle.use_count(), 0);
  EXPECT_TRUE(handle->empty());
  EXPECT_TRUE(handle.TakeOrCopy().empty());
}

}  // namespace
}  // namespace cvm
