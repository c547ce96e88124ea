// Tests for race reports, their rendered provenance, first-race filtering
// (§6.4), and the sync-order schedule used by record/replay (§6.1).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/water.h"
#include "src/dsm/dsm.h"
#include "src/race/race_report.h"
#include "src/race/replay.h"

namespace cvm {
namespace {

RaceReport MakeReport(EpochId epoch, PageId page, uint32_t word, NodeId a, NodeId b) {
  RaceReport r;
  r.kind = RaceKind::kWriteWrite;
  r.page = page;
  r.word = word;
  r.epoch = epoch;
  r.interval_a = IntervalId{a, 0};
  r.interval_b = IntervalId{b, 0};
  return r;
}

TEST(RaceReportTest, SameRaceIsSymmetricInPair) {
  RaceReport r1 = MakeReport(0, 1, 2, 0, 1);
  RaceReport r2 = MakeReport(0, 1, 2, 1, 0);
  std::swap(r2.interval_a, r2.interval_b);  // Same pair, either order.
  EXPECT_TRUE(r1.SameRace(r2));
  RaceReport r3 = MakeReport(0, 1, 3, 0, 1);
  EXPECT_FALSE(r1.SameRace(r3));
  RaceReport r4 = MakeReport(0, 1, 2, 0, 1);
  r4.kind = RaceKind::kReadWrite;
  EXPECT_FALSE(r1.SameRace(r4));
}

TEST(RaceReportTest, ToStringMentionsSymbolAndIntervals) {
  RaceReport r = MakeReport(3, 1, 2, 0, 1);
  r.symbol = "tour_bound";
  const std::string s = r.ToString();
  EXPECT_NE(s.find("tour_bound"), std::string::npos);
  EXPECT_NE(s.find("write-write"), std::string::npos);
  EXPECT_NE(s.find("s0^0"), std::string::npos);
  EXPECT_NE(s.find("epoch 3"), std::string::npos);
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return hash;
}

// Water (8 molecules, 3 iterations) on 8 nodes, replaying one recorded
// lock-grant order so every interval's vector clock — and with it every
// report and its provenance — is the same on each run.
std::vector<RaceReport> WaterReportsUnderPinnedSchedule() {
  const std::vector<std::pair<LockId, std::vector<NodeId>>> grants = {
      {2, {1, 7, 2, 4, 5, 6, 3, 0, 7, 1, 4, 6, 0, 2, 3, 5, 7, 0, 1, 6, 4, 2, 3, 5}},
      {8, {1, 2, 4, 5, 6, 3, 0, 1, 4, 6, 0, 2, 3, 5, 0, 1, 6, 4, 2, 3, 5}},
  };
  SyncSchedule schedule;
  for (const auto& [lock, order] : grants) {
    for (NodeId grantee : order) {
      schedule.RecordGrant(lock, grantee);
    }
  }
  DsmOptions options;
  options.num_nodes = 8;
  options.replay_schedule = &schedule;
  WaterApp::Params params;
  params.molecules = 8;
  params.iters = 3;
  WaterApp app(params);
  DsmSystem system(options);
  app.Setup(system);
  RunResult result = system.Run([&app](NodeContext& ctx) { app.Run(ctx); });
  EXPECT_TRUE(app.Verify());
  return result.races;
}

// Provenance is rendered on demand from the fields captured at publish
// time. Both renderings must stay byte-identical to the text the reports
// carried when the chain was built eagerly; the sizes and hashes below pin
// that text for the whole run.
TEST(RaceReportTest, ProvenanceRenderingIsPinnedForWater) {
  const std::vector<RaceReport> races = WaterReportsUnderPinnedSchedule();
  ASSERT_EQ(races.size(), 168u);
  std::string text;
  for (const RaceReport& race : races) {
    EXPECT_FALSE(race.provenance.empty());
    text += race.ToString() + "\n" + FormatProvenance(race);
  }
  const std::string json = RaceReportsToJson(races);

  EXPECT_EQ(FormatProvenance(races.front()),
            "  access A: sigma_0^8 on node 0 (epoch 2, vc [8,7,7,7,7,7,7,5])\n"
            "  access B: sigma_1^8 on node 1 (epoch 2, vc [3,8,3,3,3,3,3,3])\n"
            "  ordering: node 0's sync op #8 -> access A -> sync op #9; node 1's sync op #8 "
            "-> access B -> sync op #9\n"
            "  concurrency test: vc_sigma_1^8[0]=3 < 8 and vc_sigma_0^8[1]=7 < 8 \u2014 no "
            "release/acquire chain connects the accesses\n"
            "  exposed at the epoch-2 barrier check, when both intervals' notices first met at "
            "the master\n");
  EXPECT_EQ(text.size(), 92820u);
  EXPECT_EQ(Fnv1a(text), 18218347556051707961ull);
  EXPECT_EQ(json.size(), 130231u);
  EXPECT_EQ(Fnv1a(json), 6771587450665915227ull);
}

TEST(RaceReportTest, UnattachedProvenanceRendersTheFallback) {
  RaceReport r = MakeReport(1, 2, 3, 0, 1);
  EXPECT_TRUE(r.provenance.empty());
  EXPECT_EQ(FormatProvenance(r), "  (no provenance recorded)\n");
  const std::string json = RaceReportsToJson({r});
  EXPECT_NE(json.find("\"chain\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"resolved\":false"), std::string::npos);
}

TEST(FirstRacesTest, KeepsOnlyEarliestRacyEpoch) {
  // §6.4: barriers order epochs, so all "first" races — races not affected
  // by a prior race — live in the earliest epoch that has any.
  std::vector<RaceReport> reports = {MakeReport(4, 0, 0, 0, 1), MakeReport(2, 1, 1, 0, 1),
                                     MakeReport(2, 1, 2, 1, 2), MakeReport(7, 3, 0, 0, 2)};
  const auto first = FilterFirstRaces(reports);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].epoch, 2);
  EXPECT_EQ(first[1].epoch, 2);
  EXPECT_TRUE(FilterFirstRaces({}).empty());
}

TEST(SyncScheduleTest, RecordAndReplayCursor) {
  SyncSchedule schedule;
  schedule.RecordGrant(3, 0);
  schedule.RecordGrant(3, 2);
  schedule.RecordGrant(5, 1);
  EXPECT_EQ(schedule.TotalGrants(), 3u);
  EXPECT_EQ(schedule.GrantsFor(3).size(), 2u);

  EXPECT_EQ(schedule.NextGrantee(3), 0);
  schedule.ConsumeGrant(3, 0);
  EXPECT_EQ(schedule.NextGrantee(3), 2);
  schedule.ConsumeGrant(3, 2);
  // Exhausted: any order goes.
  EXPECT_EQ(schedule.NextGrantee(3), kNoNode);
  // Unrecorded lock: unconstrained.
  EXPECT_EQ(schedule.NextGrantee(99), kNoNode);
}

TEST(SyncScheduleTest, CopyResetsCursor) {
  SyncSchedule schedule;
  schedule.RecordGrant(0, 1);
  schedule.ConsumeGrant(0, 1);
  SyncSchedule copy = schedule;
  EXPECT_EQ(copy.NextGrantee(0), 1);  // Fresh cursor for the replay run.
}

TEST(SyncScheduleTest, ConsumeWrongGranteeAborts) {
  SyncSchedule schedule;
  schedule.RecordGrant(0, 1);
  EXPECT_DEATH(schedule.ConsumeGrant(0, 2), "CHECK failed");
}

}  // namespace
}  // namespace cvm
