// Micro-benchmarks of the primitives the paper's cost claims rest on: the
// constant-time vector-timestamp concurrency test (§4 step 2 — "two integer
// comparisons"), bitmap comparison ("constant time, dependent on page
// size"), diff creation/application, interval-log queries, and the §6.2
// page-overlap alternatives (pairwise lists vs dense page bitmaps).
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>

#include "src/common/bitmap.h"
#include "src/common/rng.h"
#include "src/mem/diff.h"
#include "src/race/detector.h"

namespace cvm {
namespace {

void BM_VectorClockConcurrencyTest(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  VectorClock a(nodes);
  VectorClock b(nodes);
  a.Set(0, 10);
  b.Set(1, 12);
  const IntervalId ia{0, 10};
  const IntervalId ib{1, 12};
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalsConcurrent(ia, a, ib, b));
  }
}
BENCHMARK(BM_VectorClockConcurrencyTest)->Arg(2)->Arg(8)->Arg(32);

void BM_BitmapCompare(benchmark::State& state) {
  const uint32_t words = static_cast<uint32_t>(state.range(0));
  Bitmap a(words);
  Bitmap b(words);
  Rng rng(1);
  for (uint32_t i = 0; i < words / 16; ++i) {
    a.Set(static_cast<uint32_t>(rng.Below(words)));
    b.Set(static_cast<uint32_t>(rng.Below(words)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersects(b));
  }
  state.SetLabel(std::to_string(words * 4) + "B page");
}
BENCHMARK(BM_BitmapCompare)->Arg(256)->Arg(1024)->Arg(2048);  // 1K/4K/8K pages.

void BM_DiffCreate(benchmark::State& state) {
  const size_t page = 4096;
  std::vector<uint8_t> twin(page, 0);
  std::vector<uint8_t> current(page, 0);
  Rng rng(2);
  for (int i = 0; i < state.range(0); ++i) {
    current[rng.Below(page)] = static_cast<uint8_t>(1 + rng.Below(255));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeDiff(0, IntervalId{0, 0}, twin, current));
  }
}
BENCHMARK(BM_DiffCreate)->Arg(0)->Arg(16)->Arg(256);

void BM_DiffApply(benchmark::State& state) {
  const size_t page = 4096;
  std::vector<uint8_t> twin(page, 0);
  std::vector<uint8_t> current(page, 0);
  Rng rng(3);
  for (int i = 0; i < state.range(0); ++i) {
    current[rng.Below(page)] = static_cast<uint8_t>(1 + rng.Below(255));
  }
  const Diff diff = MakeDiff(0, IntervalId{0, 0}, twin, current);
  std::vector<uint8_t> frame(page, 0);
  for (auto _ : state) {
    ApplyDiff(diff, frame);
    benchmark::DoNotOptimize(frame.data());
  }
}
BENCHMARK(BM_DiffApply)->Arg(16)->Arg(256);

// §6.2: page-set overlap via short sorted lists is O(n^2) in list length but
// wins for the typical "fewer than ten pages"; dense page bitmaps are linear
// in the number of pages in the system and win for long lists.
void RunOverlapBench(benchmark::State& state, OverlapMethod method) {
  const int list_len = static_cast<int>(state.range(0));
  const int num_pages = 4096;
  Rng rng(4);
  std::vector<IntervalRecord> records;
  for (int n = 0; n < 2; ++n) {
    IntervalRecord r;
    r.id = IntervalId{n, 0};
    r.vc = VectorClock(2);
    r.vc.Set(n, 0);
    for (int i = 0; i < list_len; ++i) {
      r.write_pages.push_back(static_cast<PageId>(rng.Below(num_pages)));
      r.read_pages.push_back(static_cast<PageId>(rng.Below(num_pages)));
    }
    records.push_back(std::move(r));
  }
  for (auto _ : state) {
    RaceDetector detector(num_pages, method);
    benchmark::DoNotOptimize(detector.BuildCheckList(records));
  }
}
void BM_OverlapPageLists(benchmark::State& state) {
  RunOverlapBench(state, OverlapMethod::kPageLists);
}
void BM_OverlapPageBitmaps(benchmark::State& state) {
  RunOverlapBench(state, OverlapMethod::kPageBitmaps);
}
BENCHMARK(BM_OverlapPageLists)->Arg(4)->Arg(10)->Arg(64)->Arg(512);
BENCHMARK(BM_OverlapPageBitmaps)->Arg(4)->Arg(10)->Arg(64)->Arg(512);

void BM_IntervalLogUnseen(benchmark::State& state) {
  const int nodes = 8;
  IntervalLog log(nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    for (IntervalIndex i = 0; i < state.range(0); ++i) {
      IntervalRecord r;
      r.id = IntervalId{n, i};
      r.vc = VectorClock(nodes);
      r.vc.Set(n, i);
      r.write_pages = {static_cast<PageId>(i % 16)};
      log.Insert(std::make_shared<const IntervalRecord>(std::move(r)));
    }
  }
  VectorClock vc(nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    vc.Set(n, static_cast<IntervalIndex>(state.range(0) / 2));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.UnseenBy(vc));
  }
}
BENCHMARK(BM_IntervalLogUnseen)->Arg(16)->Arg(177);  // TSP's intervals/barrier.

}  // namespace
}  // namespace cvm

BENCHMARK_MAIN();
