// Crash-tolerance tests (docs/FAULTS.md "Crash faults & recovery"): a
// seeded node crash must end the run as a recoverable event — no process
// abort, no hang — with every survivor rolled back to the last consistent
// barrier cut and the race report truncated to the fully-checked prefix.
// The blocking-wait primitive every crash path runs through
// (ProtocolHost::Wait) is also driven directly here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/sor.h"
#include "src/apps/tsp.h"
#include "src/apps/water.h"
#include "src/dsm/dsm.h"
#include "src/fault/fault.h"
#include "src/net/message.h"
#include "src/protocol/coherence.h"
#include "src/race/race_report.h"

namespace cvm {
namespace {

SorApp::Params SmallSor() {
  SorApp::Params params;
  params.rows = 34;
  params.cols = 32;
  params.iters = 2;
  return params;
}

WaterApp::Params SmallWater() {
  WaterApp::Params params;
  params.molecules = 64;
  params.iters = 2;
  return params;
}

struct Outcome {
  bool verified = false;
  std::vector<RaceReport> races;
  CrashOutcome recovery;
  uint64_t barriers = 0;
};

// A tree_fanout above 0 runs the combine-tree barrier with that fanout.
template <typename App>
Outcome RunApp(typename App::Params params, const fault::FaultPlan& plan, int nodes,
               DetectionPipeline pipeline = DetectionPipeline::kSerial, int tree_fanout = 0) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.fault_plan = plan;
  options.detection_pipeline = pipeline;
  options.barrier_tree = tree_fanout > 0;
  if (tree_fanout > 0) {
    options.barrier_fanout = tree_fanout;
  }
  auto app = std::make_unique<App>(params);
  DsmSystem system(options);
  app->Setup(system);
  RunResult result = system.Run([&app](NodeContext& ctx) { app->Run(ctx); });
  Outcome outcome;
  outcome.verified = app->Verify();
  outcome.races = std::move(result.races);
  outcome.recovery = result.recovery;
  outcome.barriers = result.barriers;
  return outcome;
}

std::string Summary(const std::vector<RaceReport>& races) {
  std::string text;
  for (const RaceSummaryLine& line : SummarizeRaces(races)) {
    text += line.symbol + ":" + std::to_string(line.write_write) + ":" +
            std::to_string(line.read_write) + ":" + std::to_string(line.first_epoch) + "\n";
  }
  return text;
}

std::vector<RaceReport> ReportsThrough(const std::vector<RaceReport>& races,
                                       EpochId last_epoch) {
  std::vector<RaceReport> prefix;
  for (const RaceReport& report : races) {
    if (report.epoch <= last_epoch) {
      prefix.push_back(report);
    }
  }
  return prefix;
}

TEST(DsmRecoveryTest, SeededCrashIsARecoverableEventNotAnAbort) {
  const auto plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 3);
  const Outcome outcome = RunApp<SorApp>(SmallSor(), plan, 4);
  ASSERT_TRUE(outcome.recovery.crashed);
  EXPECT_GE(outcome.recovery.crash_node, 0);
  EXPECT_LT(outcome.recovery.crash_node, 4);
  EXPECT_EQ(outcome.recovery.crash_epoch, 1);
  // The crash fires at barrier 1, so only barrier 0's detection completed.
  EXPECT_EQ(outcome.recovery.last_consistent_epoch, 0);
  // Every node (the victim included) restored the checkpointed cut.
  EXPECT_EQ(outcome.recovery.rollbacks, 4u);
  // A torn run does not verify — rerunning the workload is the caller's call.
  EXPECT_FALSE(outcome.verified);
}

TEST(DsmRecoveryTest, CrashedRunReportsThePrefixTheConsistentCutCovers) {
  // Buggy water races from epoch 2 on; crash at epoch 4 so some (not all)
  // racy epochs complete. The crashed run's reports must be exactly the
  // baseline reports whose detecting barrier is inside the consistent cut.
  const auto off = fault::FaultPlan::FromProfile(fault::FaultProfile::kOff, 1);
  const Outcome clean = RunApp<WaterApp>(SmallWater(), off, 4);
  ASSERT_TRUE(clean.verified);
  ASSERT_FALSE(clean.races.empty());

  fault::FaultPlan plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 1);
  plan.crash_epoch = 4;
  const Outcome crashed = RunApp<WaterApp>(SmallWater(), plan, 4);
  ASSERT_TRUE(crashed.recovery.crashed);
  EXPECT_EQ(crashed.recovery.crash_epoch, 4);
  EXPECT_EQ(crashed.recovery.last_consistent_epoch, 3);
  EXPECT_FALSE(crashed.races.empty());  // Epoch-2/3 races survived the rollback.
  EXPECT_EQ(Summary(crashed.races),
            Summary(ReportsThrough(clean.races, crashed.recovery.last_consistent_epoch)));
}

TEST(DsmRecoveryTest, MasterCrashIsDetectedBySurvivingWorkers) {
  // Node 0 runs the barrier and the detection pipeline; its death is the
  // worst case (every survivor is mid-wait on it, none can be released).
  fault::FaultPlan plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 1);
  plan.crash_node = 0;
  plan.crash_epoch = 1;
  const Outcome outcome = RunApp<SorApp>(SmallSor(), plan, 4);
  ASSERT_TRUE(outcome.recovery.crashed);
  EXPECT_EQ(outcome.recovery.crash_node, 0);
  EXPECT_EQ(outcome.recovery.last_consistent_epoch, 0);
  EXPECT_EQ(outcome.recovery.rollbacks, 4u);
}

TEST(DsmRecoveryTest, LockHeavyAppSurvivesACrashWithoutHanging) {
  // TSP workers block in lock acquires, not just barriers — the abort has
  // to wake those waits too or the run wedges (the test's 300 s ctest
  // timeout is the hang detector).
  TspApp::Params params;
  params.num_cities = 10;
  fault::FaultPlan plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 5);
  plan.crash_epoch = 1;
  const Outcome outcome = RunApp<TspApp>(params, plan, 4);
  ASSERT_TRUE(outcome.recovery.crashed);
  EXPECT_EQ(outcome.recovery.crash_epoch, 1);
}

TEST(DsmRecoveryTest, CrashRecoveryWorksUnderEveryDetectionPipeline) {
  for (const DetectionPipeline pipeline :
       {DetectionPipeline::kSerial, DetectionPipeline::kDistributed}) {
    const auto plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 7);
    const Outcome outcome = RunApp<SorApp>(SmallSor(), plan, 4, pipeline);
    ASSERT_TRUE(outcome.recovery.crashed) << static_cast<int>(pipeline);
    EXPECT_EQ(outcome.recovery.last_consistent_epoch, 0) << static_cast<int>(pipeline);
  }
  // The combine tree (fanout 2, 7 nodes, so releases pass through interior
  // nodes) with the master, its root, crashing. A release an interior node
  // forwards can lose to a RunAbort sent directly, so survivors may stop a
  // barrier apart; the cut is then the earlier one, and the reports must
  // still be exactly the clean run's up to it.
  for (const DetectionPipeline pipeline :
       {DetectionPipeline::kSerial, DetectionPipeline::kDistributed}) {
    const auto off = fault::FaultPlan::FromProfile(fault::FaultProfile::kOff, 1);
    const Outcome clean = RunApp<WaterApp>(SmallWater(), off, 7, pipeline, /*tree_fanout=*/2);
    ASSERT_TRUE(clean.verified) << static_cast<int>(pipeline);
    fault::FaultPlan plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 7);
    plan.crash_node = 0;
    plan.crash_epoch = 4;
    const Outcome crashed = RunApp<WaterApp>(SmallWater(), plan, 7, pipeline, /*tree_fanout=*/2);
    ASSERT_TRUE(crashed.recovery.crashed) << static_cast<int>(pipeline);
    EXPECT_EQ(crashed.recovery.crash_node, 0) << static_cast<int>(pipeline);
    EXPECT_LE(crashed.recovery.last_consistent_epoch, plan.crash_epoch - 1)
        << static_cast<int>(pipeline);
    EXPECT_EQ(Summary(crashed.races),
              Summary(ReportsThrough(clean.races, crashed.recovery.last_consistent_epoch)))
        << static_cast<int>(pipeline);
  }
}

TEST(DsmRecoveryTest, DisarmedCrashPlanPerturbsNothing) {
  // A crash profile with the epoch disarmed (the "reboot" re-run)
  // keeps the reliable transport but must reproduce the baseline exactly.
  const auto off = fault::FaultPlan::FromProfile(fault::FaultProfile::kOff, 1);
  const Outcome clean = RunApp<WaterApp>(SmallWater(), off, 4);
  fault::FaultPlan reboot = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 9);
  reboot.crash_epoch = -1;
  const Outcome rerun = RunApp<WaterApp>(SmallWater(), reboot, 4);
  EXPECT_FALSE(rerun.recovery.crashed);
  EXPECT_TRUE(rerun.verified);
  EXPECT_EQ(Summary(clean.races), Summary(rerun.races));
  EXPECT_EQ(clean.barriers, rerun.barriers);
}

// ---- The blocking-wait primitive (ProtocolHost::Wait), driven directly ----
// Each test runs its wait on node 1's app thread before that thread's first
// DSM call, holding the node mutex through its own lock as a DSM call would.

// Sends RunAbortMsg{epoch 0, dead} to every node, as a detector would.
void BroadcastAbort(DsmSystem& system, NodeId from, NodeId dead) {
  for (NodeId n = 0; n < system.options().num_nodes; ++n) {
    Message msg;
    msg.from = from;
    msg.to = n;
    msg.payload = RunAbortMsg{0, dead};
    system.network().Send(std::move(msg));
  }
}

TEST(WatchfulWaitTest, AbortEndsAnUnmetWaitButNeverAMetOne) {
  DsmOptions options;
  options.num_nodes = 3;
  options.trace.trace_enabled = true;
  DsmSystem system(options);
  bool unmet_threw = false;
  NodeId named = kNoNode;
  bool met_returned = false;
  const RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() != 1) {
      return;
    }
    BroadcastAbort(system, /*from=*/1, /*dead=*/2);
    ProtocolHost& host = ctx;
    std::unique_lock<std::mutex> lk(host.mu().native());
    // (b) The run is aborted and the awaited event never happens: throws.
    try {
      host.Wait(lk, "PageReply", [] { return false; });
    } catch (const RunAbortError& err) {
      unmet_threw = true;
      named = err.dead;
    }
    // (a) Still aborted, but the awaited event has happened: the event wins.
    host.Wait(lk, "LockGrant", [] { return true; });
    met_returned = true;
  });
  EXPECT_TRUE(unmet_threw);
  EXPECT_EQ(named, 2);
  EXPECT_TRUE(met_returned);
  EXPECT_TRUE(result.recovery.crashed);

  // The aborted wait said what it was waiting for; the met one said nothing.
  if constexpr (!obs::kObsCompiledIn) {
    return;
  }
  std::vector<std::string> awaited;
  for (const obs::TraceEvent& event : system.tracer()->Collected()) {
    if (std::string(event.name) == "wait.abort" && event.node == 1) {
      awaited.emplace_back(event.str_arg_value);
    }
  }
  ASSERT_FALSE(awaited.empty());
  EXPECT_EQ(awaited.front(), "PageReply");
  for (const std::string& label : awaited) {
    EXPECT_NE(label, "LockGrant");
  }
}

TEST(WatchfulWaitTest, ArmedWaitThrowsNamingADeadPeerThatNeverAnswers) {
  // The crash plan is armed but its epoch is never reached: the only death
  // is node 2's NIC going dead. Node 1 waits for an event that never comes
  // from no peer in particular, as a forwarded page or lock request does.
  // Without the armed wait's probes it would park forever.
  DsmOptions options;
  options.num_nodes = 3;
  options.fault_plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 1);
  options.fault_plan.crash_node = 2;
  options.fault_plan.crash_epoch = 1000;
  DsmSystem system(options);
  ASSERT_TRUE(system.crash_armed());
  bool threw = false;
  NodeId named = kNoNode;
  std::chrono::steady_clock::duration waited{};
  system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 2) {
      // Fail-stop: from here on node 2 neither sends nor receives.
      system.network().MarkNodeDead(2);
      throw RunAbortError{2, 0, /*self_crash=*/true};
    }
    if (ctx.id() != 1) {
      return;
    }
    ProtocolHost& host = ctx;
    std::unique_lock<std::mutex> lk(host.mu().native());
    const auto start = std::chrono::steady_clock::now();
    try {
      host.Wait(lk, "PageReply", [] { return false; });
    } catch (const RunAbortError& err) {
      threw = true;
      named = err.dead;
    }
    waited = std::chrono::steady_clock::now() - start;
  });
  EXPECT_TRUE(threw);
  EXPECT_EQ(named, 2);
  EXPECT_LT(waited, std::chrono::seconds(2));
}

TEST(WatchfulWaitTest, AReleaseOnItsWayWinsOverADeathFoundElsewhere) {
  // The master (node 0, played by hand) releases barrier 0 to worker 1 and
  // stalls before worker 2's release. Worker 1 crashes at barrier 1; worker
  // 3, in a wait that probes every peer, finds it dead meanwhile. Worker 2,
  // waiting for its release, must neither probe node 1 itself nor get the
  // abort ahead of the release: it completes barrier 0, as node 1 did.
  DsmOptions options;
  options.num_nodes = 4;
  options.fault_plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 1);
  options.fault_plan.crash_node = 1;
  options.fault_plan.crash_epoch = 1;
  DsmSystem system(options);
  ASSERT_TRUE(system.crash_armed());
  const auto release = [&system](NodeId to) {
    Message msg;
    msg.from = 0;
    msg.to = to;
    BarrierReleaseMsg body;
    body.epoch = 0;
    body.merged_vc = VectorClock(system.options().num_nodes);
    msg.payload = std::move(body);
    system.network().Send(std::move(msg));
  };
  std::atomic<bool> detected{false};
  NodeId named = kNoNode;
  bool worker2_released = false;
  system.Run([&](NodeContext& ctx) {
    ProtocolHost& host = ctx;
    switch (ctx.id()) {
      case 0: {
        // Holding mu_ keeps the master's handlers (and so its relay of the
        // abort) behind the release loop, as in MasterRunBarrier.
        std::unique_lock<std::mutex> lk(host.mu().native());
        release(1);
        const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!detected.load() && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        // Several more suspicion intervals of stall, for worker 2 to probe in.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        release(2);
        return;
      }
      case 1:
        ctx.Barrier();
        ctx.Barrier();  // Crashes here.
        return;
      case 2:
        ctx.Barrier();
        worker2_released = true;
        return;
      default: {
        std::unique_lock<std::mutex> lk(host.mu().native());
        try {
          host.Wait(lk, "PageReply", [] { return false; });
        } catch (const RunAbortError& err) {
          named = err.dead;
          detected.store(true);
          throw;
        }
      }
    }
  });
  EXPECT_TRUE(detected.load());
  EXPECT_EQ(named, 1);
  EXPECT_TRUE(worker2_released);
}

}  // namespace
}  // namespace cvm
