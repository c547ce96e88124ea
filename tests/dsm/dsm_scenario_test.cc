// Scripted executions reproducing the paper's figures: Figure 1's actual
// vs ordered accesses, and Figure 5's weak-memory-only races.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"
#include "src/race/replay.h"

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

size_t RacesOn(const std::vector<RaceReport>& races, const std::string& prefix) {
  return static_cast<size_t>(
      std::count_if(races.begin(), races.end(), [&](const RaceReport& r) {
        return r.symbol.rfind(prefix, 0) == 0;
      }));
}

class ScenarioTest : public ::testing::TestWithParam<ProtocolKind> {};

// Figure 1: P1 writes x under lock L; P2 first reads x WITHOUT the lock
// (the actual data race w1–r2), then reads it again under L (ordered by
// P1's unlock and P2's lock — no race).
//
// The figure's interleaving grants L to P1 first. Left to the host
// scheduler, P2 is sometimes granted L first; then r2 happens-before w1 and
// there is no race to report. The run replays the figure's grant order
// (§6.1 SyncSchedule) so the test always exercises the paper's execution.
TEST_P(ScenarioTest, Figure1ActualRaceDetectedOrderedReadIsNot) {
  SyncSchedule figure_order;
  figure_order.RecordGrant(0, 0);  // P1 (node 0) first...
  figure_order.RecordGrant(0, 1);  // ...then P2 (node 1).
  DsmOptions options = SmallOptions(2, GetParam());
  options.replay_schedule = &figure_order;
  options.record_sync_order = true;
  DsmSystem system(options);
  auto x = SharedVar<int32_t>::Alloc(system, "x");

  RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      ctx.Lock(0);
      x.Set(ctx, 1);  // w1(x)
      ctx.Unlock(0);
    } else {
      (void)x.Get(ctx);  // r2(x): unsynchronized — the actual data race.
      ctx.Lock(0);
      (void)x.Get(ctx);  // r3(x): ordered via L.
      ctx.Unlock(0);
    }
  });

  ASSERT_EQ(result.recorded_schedule.GrantsFor(0), (std::vector<NodeId>{0, 1}))
      << "the replayed run must follow the figure's grant order";
  const size_t on_x = RacesOn(result.races, "x");
  EXPECT_GE(on_x, 1u) << "w1-r2 must be reported";
  for (const RaceReport& r : result.races) {
    if (r.symbol.rfind("x", 0) == 0) {
      EXPECT_EQ(r.kind, RaceKind::kReadWrite);
      // The racing reader is P2's FIRST interval region (before its Lock).
      // The locked read r3 is ordered and must not appear: every reported
      // pair must involve the writer interval on node 0.
      EXPECT_TRUE(r.interval_a.node == 0 || r.interval_b.node == 0);
    }
  }
  // Exactly one distinct racy access pair on x: w1 vs r2. r3's interval is
  // ordered, so there is exactly one reported race on x.
  EXPECT_EQ(on_x, 1u);
}

// Figure 5: on sequentially consistent hardware P2 would observe qPtr=100
// and write beyond 100; under LRC with a missing release/acquire P2 reads
// the STALE qPtr (37) and collides with P3's writes at 37 — a race that
// "would not occur in an SC system".
TEST_P(ScenarioTest, Figure5WeakMemoryOnlyRace) {
  DsmSystem system(SmallOptions(3, GetParam()));
  auto q_ptr = SharedVar<int32_t>::Alloc(system, "qPtr");
  auto q_empty = SharedVar<int32_t>::Alloc(system, "qEmpty");
  auto buf = SharedArray<int32_t>::Alloc(system, "buf", 128);
  int32_t p2_observed_ptr = -1;

  RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      q_ptr.Set(ctx, 37);
      q_empty.Set(ctx, 1);
    }
    ctx.Barrier();
    if (ctx.id() == 1 || ctx.id() == 2) {
      // Both hold valid copies of the control page now.
      (void)q_ptr.Get(ctx);
      (void)q_empty.Get(ctx);
    }
    ctx.Barrier();
    if (ctx.id() == 0) {
      // P1: w1(qPtr)100, w1(qEmpty)0, {missing release}.
      q_ptr.Set(ctx, 100);
      q_empty.Set(ctx, 0);
    } else if (ctx.id() == 1) {
      // P2: {missing acquire}; reads the stale pointer and writes there.
      (void)q_empty.Get(ctx);
      const int32_t ptr = q_ptr.Get(ctx);
      p2_observed_ptr = ptr;
      buf.Set(ctx, ptr, 1);
      buf.Set(ctx, ptr + 1, 1);
    } else {
      // P3: writes at 37, 38, ... concurrently.
      buf.Set(ctx, 37, 2);
      buf.Set(ctx, 38, 2);
      buf.Set(ctx, 39, 2);
    }
  });

  EXPECT_EQ(p2_observed_ptr, 37) << "weak memory must expose the stale pointer";
  // The w2(37)-w3(37) race exists only because of the stale read.
  EXPECT_GE(RacesOn(result.races, "buf+148"), 1u) << "buf[37] write-write race";
  // The control-variable races (qPtr, qEmpty) exist too.
  EXPECT_GE(RacesOn(result.races, "qPtr"), 1u);
  EXPECT_GE(RacesOn(result.races, "qEmpty"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ScenarioTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc),
                         [](const ::testing::TestParamInfo<ProtocolKind>& param_info) {
                           return ProtocolKindName(param_info.param);
                         });

}  // namespace
}  // namespace cvm
