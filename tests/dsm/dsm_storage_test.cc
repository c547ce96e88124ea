// Storage-bound tests for the paper's trace-retention claims: the online
// system keeps only the current epoch's consistency data ("our system only
// discards trace information when it has been checked" — §6.4, and it does
// discard it then), while postmortem tracing retains everything.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "src/apps/sor.h"
#include "src/apps/tsp.h"
#include "src/apps/water.h"
#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace cvm {
namespace {

DsmOptions Options() {
  DsmOptions options;
  options.num_nodes = 4;
  options.page_size = 256;
  options.max_shared_bytes = 64 * 1024;
  return options;
}

// Many identical epochs; per-epoch work is constant.
RunResult RunEpochs(const DsmOptions& options, int epochs) {
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 64);
  return system.Run([&, epochs](NodeContext& ctx) {
    for (int e = 0; e < epochs; ++e) {
      for (int i = 0; i < 8; ++i) {
        data.Set(ctx, ctx.id() * 8 + i, e);
        (void)data.Get(ctx, ((ctx.id() + 1) % ctx.num_nodes()) * 8 + i);
      }
      ctx.Barrier();
    }
  });
}

TEST(DsmStorageTest, OnlineRetentionIsBoundedByOneEpoch) {
  RunResult short_run = RunEpochs(Options(), 4);
  RunResult long_run = RunEpochs(Options(), 32);
  // 8x the epochs, same high-water mark: checked data is dropped.
  EXPECT_EQ(long_run.max_retained_bitmap_pairs, short_run.max_retained_bitmap_pairs);
  EXPECT_LE(long_run.max_interval_log_size, short_run.max_interval_log_size + 2);
  // But total recorded grows with the run, of course.
  EXPECT_GT(long_run.bitmap_pairs_recorded, 4 * short_run.bitmap_pairs_recorded);
}

TEST(DsmStorageTest, PostmortemRetentionGrowsWithTheRun) {
  DsmOptions options = Options();
  options.postmortem_trace = true;
  RunResult short_run = RunEpochs(options, 4);
  RunResult long_run = RunEpochs(options, 32);
  EXPECT_GT(long_run.max_retained_bitmap_pairs, 4 * short_run.max_retained_bitmap_pairs)
      << "the trace must accumulate across epochs";
}

TEST(DsmStorageTest, ConsolidationBoundsLockOnlyPhases) {
  // Without consolidation a lock-only phase accumulates interval records;
  // with periodic Consolidate() the log stays near its per-chunk size.
  auto run = [&](bool consolidate) {
    DsmOptions options = Options();
    DsmSystem system(options);
    auto x = SharedVar<int32_t>::Alloc(system, "x");
    return system.Run([&, consolidate](NodeContext& ctx) {
      for (int chunk = 0; chunk < 6; ++chunk) {
        for (int i = 0; i < 10; ++i) {
          ctx.Lock(1);
          x.Set(ctx, x.Get(ctx) + 1);
          ctx.Unlock(1);
        }
        if (consolidate) {
          ctx.Consolidate();
        }
      }
    });
  };
  RunResult unbounded = run(false);
  RunResult bounded = run(true);
  EXPECT_LT(bounded.max_interval_log_size * 3, unbounded.max_interval_log_size)
      << "consolidation must garbage-collect interval records";
}

// The access shim opens a read notice exactly on the first read of a page
// in an interval, as reported by the bitmap store (docs/PERFORMANCE.md §1).
// So every interval's read notices must be exactly the pages whose read
// bitmap for that interval is non-empty, and — under instrumentation write
// detection — every page with a non-empty write bitmap must carry a write
// notice.
void ExpectNoticesMatchBitmaps(ParallelApp& app, const char* name) {
  SCOPED_TRACE(name);
  DsmOptions options;
  options.num_nodes = 8;
  options.page_size = 1024;
  options.max_shared_bytes = 8ull << 20;
  options.postmortem_trace = true;
  DsmSystem system(options);
  app.Setup(system);
  system.Run([&](NodeContext& ctx) { app.Run(ctx); });
  ASSERT_TRUE(app.Verify());

  std::map<IntervalId, std::set<PageId>> read_pages;
  std::map<IntervalId, std::set<PageId>> write_pages;
  system.trace().ForEachBitmapPair(
      [&](const IntervalId& interval, PageId page, const PageAccessBitmaps& pair) {
        if (!pair.read.empty()) {
          read_pages[interval].insert(page);
        }
        if (!pair.write.empty()) {
          write_pages[interval].insert(page);
        }
      });
  ASSERT_FALSE(read_pages.empty());
  size_t records = 0;
  std::set<IntervalId> recorded;
  system.trace().ForEachRecord([&](const IntervalRecord& record) {
    ++records;
    recorded.insert(record.id);
    const std::set<PageId> notices(record.read_pages.begin(), record.read_pages.end());
    EXPECT_EQ(notices.size(), record.read_pages.size()) << record.ToString();
    EXPECT_EQ(notices, read_pages[record.id]) << record.ToString();
    for (PageId page : write_pages[record.id]) {
      EXPECT_TRUE(record.WritesPage(page)) << "page " << page << " in " << record.ToString();
    }
  });
  EXPECT_GT(records, 0u);
  // No bitmap belongs to an interval that never published a record.
  for (const auto& [interval, pages] : read_pages) {
    EXPECT_TRUE(recorded.count(interval) == 1 || pages.empty()) << interval.ToString();
  }
}

TEST(DsmStorageTest, ReadNoticesAreExactlyThePagesWithReadBits) {
  SorApp::Params sor;
  sor.rows = 34;
  sor.cols = 32;
  sor.iters = 3;
  sor.page_size = 1024;
  SorApp sor_app(sor);
  ExpectNoticesMatchBitmaps(sor_app, "sor");

  WaterApp::Params water;
  water.molecules = 32;
  water.iters = 2;
  water.page_size = 1024;
  WaterApp water_app(water);
  ExpectNoticesMatchBitmaps(water_app, "water");

  TspApp::Params tsp;
  tsp.num_cities = 10;
  tsp.prefix_depth = 2;
  tsp.page_size = 1024;
  TspApp tsp_app(tsp);
  ExpectNoticesMatchBitmaps(tsp_app, "tsp");
}

}  // namespace
}  // namespace cvm
