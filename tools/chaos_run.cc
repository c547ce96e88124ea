// chaos_run: fault-injection sweep harness. Runs each selected application
// once on the clean fabric, then again under each selected fault profile and
// loss rate, and asserts that the run still verifies and that the race report
// is identical to the fault-free run — the end-to-end guarantee the reliable
// transport (src/net/) owes the detection protocol.
//
// Examples:
//   chaos_run                                  # all apps, all profiles
//   chaos_run --apps=sor,tsp --profiles=lossy --loss=0.01 --nodes=4
//   chaos_run --profiles=stress --loss=0.01,0.05 --seed=7
//
// Exit status: 0 if every faulty run verified with an identical race report,
// 1 on any divergence.
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/fft.h"
#include "src/apps/lu.h"
#include "src/apps/sor.h"
#include "src/apps/tsp.h"
#include "src/apps/water.h"
#include "src/apps/workload.h"
#include "src/common/table.h"
#include "src/fault/fault.h"
#include "tools/flags.h"

namespace {

using namespace cvm;

int Usage() {
  std::printf(
      "usage: chaos_run [options]\n"
      "\n"
      "options:\n"
      "  --apps=A,B,...      fft|sor|tsp|water|lu (default: all five)\n"
      "  --profiles=P,...    lossy|bursty|partition|stress|crash\n"
      "                      (default: the four message-fault profiles)\n"
      "  --loss=R,...        frame-loss rates overriding each profile's default\n"
      "                      (default: the profile's own rate)\n"
      "  --nodes=N           processors (default 4)\n"
      "  --seed=N            fault-injection seed (default 1)\n"
      "  --size=N            app scale knob, smaller = faster (default modest)\n"
      "  --pipeline=P        serial | distributed barrier-time check\n"
      "  --barrier-tree      k-ary combine-tree barrier (default: flat)\n"
      "  --barrier-fanout=K  combine-tree fanout (default 4)\n"
      "\n"
      "Asserts each faulty run verifies and reports the same races as the\n"
      "fault-free run (docs/FAULTS.md). The crash profile asserts recovery\n"
      "instead: the crashed run survives (no abort) with its race report a\n"
      "consistent prefix of the baseline, and a rebooted re-run under the\n"
      "same seed matches the baseline exactly.\n");
  return 2;
}

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) {
      items.push_back(item);
    }
  }
  return items;
}

// Modest inputs: the sweep runs every app under several profiles, so each
// individual run should take well under a second.
std::unique_ptr<ParallelApp> MakeApp(const std::string& name, int64_t size) {
  if (name == "fft") {
    FftApp::Params params;
    params.rows = size > 0 ? static_cast<int>(size) : 64;
    params.cols = params.rows;
    return std::make_unique<FftApp>(params);
  }
  if (name == "sor") {
    SorApp::Params params;
    params.rows = size > 0 ? static_cast<int>(size) + 2 : 66;
    params.cols = size > 0 ? static_cast<int>(size) : 64;
    params.iters = 2;
    return std::make_unique<SorApp>(params);
  }
  if (name == "tsp") {
    TspApp::Params params;
    params.num_cities = size > 0 ? static_cast<int>(size) : 10;
    return std::make_unique<TspApp>(params);
  }
  if (name == "water") {
    WaterApp::Params params;
    params.molecules = size > 0 ? static_cast<int>(size) : 64;
    params.iters = 2;
    // Keep the virial bug: the sweep then also proves that REPORTED races
    // survive injection unchanged, not just that clean apps stay clean.
    return std::make_unique<WaterApp>(params);
  }
  if (name == "lu") {
    LuApp::Params params;
    params.n = size > 0 ? static_cast<int>(size) : 48;
    params.block = 8;
    return std::make_unique<LuApp>(params);
  }
  return nullptr;
}

struct RunOutcome {
  bool verified = false;
  std::string exact;       // Per-variable summary with occurrence counts.
  std::string structural;  // Summary with counts reduced to kind flags.
  std::vector<RaceReport> races;  // Raw reports, for prefix filtering.
  CrashOutcome recovery;
  fault::FaultStats fstats;
  double sim_ms = 0;
};

// Two signatures of a run's race findings, from the deduplicated,
// symbol-sorted per-variable summary. The exact form includes dynamic
// occurrence counts; the structural form keeps only which variables race,
// which kinds of races they have, and the first racy epoch. Lock-based
// speculative apps (TSP's branch-and-bound) do schedule-dependent amounts of
// work, so their occurrence counts differ even between two fault-free runs —
// for those, only the structural signature is meaningful.
void Signatures(const std::vector<RaceReport>& races, std::string* exact,
                std::string* structural) {
  for (const RaceSummaryLine& line : SummarizeRaces(races)) {
    *exact += line.symbol + ":" + std::to_string(line.write_write) + ":" +
              std::to_string(line.read_write) + ":" + std::to_string(line.first_epoch) +
              "\n";
    *structural += line.symbol + ":" + (line.write_write > 0 ? "ww" : "-") + ":" +
                   (line.read_write > 0 ? "rw" : "-") + ":" +
                   std::to_string(line.first_epoch) + "\n";
  }
}

RunOutcome RunOnce(const std::string& app_name, int64_t size, int nodes,
                   const fault::FaultPlan& plan, DetectionPipeline pipeline,
                   bool barrier_tree, int barrier_fanout) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.max_shared_bytes = 64ull << 20;
  options.fault_plan = plan;
  options.detection_pipeline = pipeline;
  options.barrier_tree = barrier_tree;
  options.barrier_fanout = barrier_fanout;
  auto app = MakeApp(app_name, size);
  DsmSystem system(options);
  app->Setup(system);
  RunResult result = system.Run([&app](NodeContext& ctx) { app->Run(ctx); });
  RunOutcome outcome;
  outcome.verified = app->Verify();
  Signatures(result.races, &outcome.exact, &outcome.structural);
  outcome.races = std::move(result.races);
  outcome.recovery = result.recovery;
  outcome.fstats = result.fault;
  outcome.sim_ms = result.sim_time_ns / 1e6;
  return outcome;
}

// Baseline reports the crashed run could have published: those whose
// detecting barrier completed at or before the last consistent epoch.
std::vector<RaceReport> PrefixReports(const std::vector<RaceReport>& races,
                                      EpochId last_consistent_epoch) {
  std::vector<RaceReport> prefix;
  for (const RaceReport& report : races) {
    if (report.epoch <= last_consistent_epoch) {
      prefix.push_back(report);
    }
  }
  return prefix;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return Usage();
  }
  for (const std::string& key : flags.UnknownKeys(
           {"apps", "profiles", "loss", "nodes", "seed", "size", "pipeline", "barrier-tree",
            "barrier-fanout", "help"})) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
    return Usage();
  }
  if (flags.GetBool("help", false)) {
    return Usage();
  }

  const std::vector<std::string> apps =
      SplitList(flags.GetString("apps", "fft,sor,tsp,water,lu"));
  const std::vector<std::string> profile_names =
      SplitList(flags.GetString("profiles", "lossy,bursty,partition,stress"));
  const std::vector<std::string> loss_rates = SplitList(flags.GetString("loss", ""));
  const int nodes = static_cast<int>(flags.GetInt("nodes", 4));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int64_t size = flags.GetInt("size", -1);

  DetectionPipeline pipeline = DetectionPipeline::kSerial;
  const std::string pipeline_name = flags.GetString("pipeline", "serial");
  if (pipeline_name == "serial") {
    pipeline = DetectionPipeline::kSerial;
  } else if (pipeline_name == "distributed") {
    pipeline = DetectionPipeline::kDistributed;
  } else {
    std::fprintf(stderr, "error: unknown pipeline '%s'\n", pipeline_name.c_str());
    return Usage();
  }
  const bool barrier_tree = flags.GetBool("barrier-tree", false);
  const int barrier_fanout = static_cast<int>(flags.GetInt("barrier-fanout", 4));
  if (barrier_fanout < 1) {
    std::fprintf(stderr, "error: --barrier-fanout=%d must be at least 1\n", barrier_fanout);
    return Usage();
  }

  std::vector<fault::FaultProfile> profiles;
  for (const std::string& name : profile_names) {
    const auto profile = fault::ParseProfile(name);
    if (!profile.has_value() || *profile == fault::FaultProfile::kOff) {
      std::fprintf(stderr, "error: unknown fault profile '%s' (valid: %s)\n",
                   name.c_str(), fault::ValidProfileNames());
      return Usage();
    }
    profiles.push_back(*profile);
  }
  for (const std::string& app_name : apps) {
    if (MakeApp(app_name, size) == nullptr) {
      std::fprintf(stderr, "error: unknown app '%s'\n", app_name.c_str());
      return Usage();
    }
  }

  std::printf("chaos sweep: %zu app(s) x %zu profile(s)%s, %d nodes, fault seed %lu\n\n",
              apps.size(), profiles.size(),
              loss_rates.empty() ? ""
                                 : (" x " + std::to_string(loss_rates.size()) + " loss rate(s)").c_str(),
              nodes, static_cast<unsigned long>(seed));

  TablePrinter table({"App", "Profile", "Loss", "Verified", "Report", "Attempts", "Drops",
                      "Retransmits", "Dup-drops", "Sim ms"});
  int divergences = 0;
  for (const std::string& app_name : apps) {
    // Two fault-free runs calibrate the comparison: if even they disagree on
    // occurrence counts (schedule-dependent work, e.g. TSP), the sweep
    // compares the structural signature instead of the exact one.
    const fault::FaultPlan off =
        fault::FaultPlan::FromProfile(fault::FaultProfile::kOff, seed);
    const RunOutcome clean = RunOnce(app_name, size, nodes, off, pipeline, barrier_tree, barrier_fanout);
    const RunOutcome clean2 = RunOnce(app_name, size, nodes, off, pipeline, barrier_tree, barrier_fanout);
    if (!clean.verified || !clean2.verified) {
      std::fprintf(stderr, "error: %s does not verify on the clean fabric\n",
                   app_name.c_str());
      return 1;
    }
    if (clean.structural != clean2.structural) {
      std::fprintf(stderr,
                   "error: %s race reports differ structurally between two "
                   "fault-free runs; no stable baseline to compare against\n",
                   app_name.c_str());
      return 1;
    }
    const bool exact_mode = clean.exact == clean2.exact;
    const std::string& baseline = exact_mode ? clean.exact : clean.structural;
    table.AddRow({app_name, "off", "-", "yes",
                  clean.exact.empty() ? "clean" : (exact_mode ? "races" : "races~"),
                  "-", "-", "-", "-", TablePrinter::Fixed(clean.sim_ms, 1)});

    for (const fault::FaultProfile profile : profiles) {
      if (profile == fault::FaultProfile::kCrash) {
        // Crash scenario, two acts. Act one: a seed-chosen node fail-stops
        // at a barrier; the run must survive (reach here at all), declare
        // the crash, and report exactly the prefix of the baseline that its
        // last consistent cut covers. Act two: the node "reboots" — the same
        // seed with the crash disarmed must reproduce the baseline exactly.
        const fault::FaultPlan crash_plan =
            fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, seed);
        const RunOutcome crashed = RunOnce(app_name, size, nodes, crash_plan, pipeline, barrier_tree, barrier_fanout);
        std::string prefix_exact;
        std::string prefix_structural;
        Signatures(PrefixReports(clean.races, crashed.recovery.last_consistent_epoch),
                   &prefix_exact, &prefix_structural);
        const bool prefix_equal =
            (exact_mode ? crashed.exact : crashed.structural) ==
            (exact_mode ? prefix_exact : prefix_structural);
        const bool crash_ok = crashed.recovery.crashed && prefix_equal;
        if (!crash_ok) {
          ++divergences;
          std::fprintf(stderr,
                       "DIVERGENCE: %s under crash: crashed=%s (node %d, epoch %d, "
                       "consistent through %d), report %s\n  expected prefix:\n%s  got:\n%s",
                       app_name.c_str(), crashed.recovery.crashed ? "yes" : "NO",
                       crashed.recovery.crash_node, crashed.recovery.crash_epoch,
                       crashed.recovery.last_consistent_epoch,
                       prefix_equal ? "prefix-consistent" : "differs",
                       prefix_exact.empty() ? "    (none)\n" : prefix_exact.c_str(),
                       crashed.exact.empty() ? "    (none)\n" : crashed.exact.c_str());
        }
        table.AddRow({app_name, "crash", "-", crashed.recovery.crashed ? "n/a" : "NO",
                      prefix_equal ? "prefix" : "DIVERGED",
                      std::to_string(crashed.fstats.data_frames),
                      std::to_string(crashed.fstats.drops),
                      std::to_string(crashed.fstats.retransmits),
                      std::to_string(crashed.fstats.dup_dropped),
                      TablePrinter::Fixed(crashed.sim_ms, 1)});

        fault::FaultPlan reboot_plan = crash_plan;
        reboot_plan.crash_epoch = -1;  // The node came back; same seed otherwise.
        const RunOutcome rebooted = RunOnce(app_name, size, nodes, reboot_plan, pipeline, barrier_tree, barrier_fanout);
        const std::string& reboot_candidate =
            exact_mode ? rebooted.exact : rebooted.structural;
        const bool reboot_equal = reboot_candidate == baseline;
        const bool reboot_ok =
            rebooted.verified && reboot_equal && !rebooted.recovery.crashed;
        if (!reboot_ok) {
          ++divergences;
          std::fprintf(stderr,
                       "DIVERGENCE: %s after reboot: verified=%s, report %s\n"
                       "  clean:\n%s  rebooted:\n%s",
                       app_name.c_str(), rebooted.verified ? "yes" : "NO",
                       reboot_equal ? "identical" : "differs",
                       baseline.empty() ? "    (none)\n" : baseline.c_str(),
                       reboot_candidate.empty() ? "    (none)\n" : reboot_candidate.c_str());
        }
        table.AddRow({app_name, "reboot", "-", rebooted.verified ? "yes" : "NO",
                      reboot_equal ? "identical" : "DIVERGED",
                      std::to_string(rebooted.fstats.data_frames),
                      std::to_string(rebooted.fstats.drops),
                      std::to_string(rebooted.fstats.retransmits),
                      std::to_string(rebooted.fstats.dup_dropped),
                      TablePrinter::Fixed(rebooted.sim_ms, 1)});
        continue;
      }
      std::vector<double> losses;
      if (loss_rates.empty()) {
        losses.push_back(-1);  // Profile default.
      } else {
        for (const std::string& rate : loss_rates) {
          losses.push_back(std::stod(rate));
        }
      }
      for (const double loss : losses) {
        fault::FaultPlan plan = fault::FaultPlan::FromProfile(profile, seed);
        if (loss >= 0) {
          plan.drop_prob = loss;
        }
        const RunOutcome faulty = RunOnce(app_name, size, nodes, plan, pipeline, barrier_tree, barrier_fanout);
        const std::string& candidate = exact_mode ? faulty.exact : faulty.structural;
        const bool report_equal = candidate == baseline;
        const bool ok = faulty.verified && report_equal;
        if (!ok) {
          ++divergences;
        }
        table.AddRow(
            {app_name, fault::ProfileName(profile),
             TablePrinter::Fixed(loss >= 0 ? loss : plan.drop_prob, 3),
             faulty.verified ? "yes" : "NO",
             report_equal ? "identical" : "DIVERGED",
             std::to_string(faulty.fstats.data_frames),
             std::to_string(faulty.fstats.drops),
             std::to_string(faulty.fstats.retransmits),
             std::to_string(faulty.fstats.dup_dropped),
             TablePrinter::Fixed(faulty.sim_ms, 1)});
        if (!ok) {
          std::fprintf(stderr,
                       "DIVERGENCE: %s under %s (loss %.3f): verified=%s, "
                       "report %s\n  clean:\n%s  faulty:\n%s",
                       app_name.c_str(), fault::ProfileName(profile),
                       loss >= 0 ? loss : plan.drop_prob,
                       faulty.verified ? "yes" : "NO",
                       report_equal ? "identical" : "differs",
                       baseline.empty() ? "    (none)\n" : baseline.c_str(),
                       candidate.empty() ? "    (none)\n" : candidate.c_str());
        }
      }
    }
  }

  table.Print();
  if (divergences > 0) {
    std::printf("\n%d divergence(s) — fault injection changed observable behavior\n",
                divergences);
    return 1;
  }
  std::printf("\nall faulty runs verified with race reports identical to fault-free\n");
  return 0;
}
