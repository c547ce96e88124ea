// Crash-recovery bench (docs/FAULTS.md "Crash faults & recovery"): what does
// surviving a node crash cost, and does recovery keep the reports honest?
// For every workload in a small app mix it runs three fresh DsmSystems:
//   clean   no faults;
//   crash   a seed-chosen node fail-stops at barrier epoch 1;
//   reboot  the same seed with the crash disarmed (the node came back).
// It asserts two identities per workload: the crashed run's reports equal
// the clean reports up to its last consistent epoch, and the reboot's
// reports equal the clean reports. The clean mode's wall time is the clean
// run; the crash_reboot mode's is the crash run plus the reboot, i.e. what
// a verified result costs when the first attempt dies.
//
// Writes BENCH_recovery.json (validated by tools/check_bench_json.py, which
// requires both identities and that recovery costs strictly more wall time
// than the clean run), prints a table, and exits 1 if an identity fails or a
// final run does not verify.
//
// Usage: bench_recovery [--smoke]
//   --smoke   smaller inputs and fewer repetitions for CI
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app_catalog.h"
#include "src/common/table.h"
#include "src/dsm/dsm.h"
#include "src/fault/fault.h"
#include "src/race/race_report.h"

namespace {

using namespace cvm;

constexpr int kNodes = 4;

struct ModeResult {
  std::string mode;  // "clean" | "crash_reboot"
  uint64_t requests = 0;
  uint64_t completed = 0;  // Workloads whose final run verified.
  double total_wall_s = 0;
  std::vector<double> latencies;  // Per workload: wall time to a verified result.

  void Add(bool verified, double wall_s) {
    ++requests;
    completed += verified ? 1 : 0;
    total_wall_s += wall_s;
    latencies.push_back(wall_s);
  }
  double p50_s() const {
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    return sorted.empty() ? 0.0 : sorted[(sorted.size() - 1) / 2];
  }
  double mean_s() const {
    return requests == 0 ? 0.0 : total_wall_s / static_cast<double>(requests);
  }
  double per_sec() const {
    return total_wall_s > 0 ? static_cast<double>(completed) / total_wall_s : 0.0;
  }
};

struct Run {
  bool verified = false;
  std::string summary;  // Per-variable race summary, occurrence counts included.
  std::vector<RaceReport> races;
  CrashOutcome recovery;
  double wall_s = 0;
};

std::string Summary(const std::vector<RaceReport>& races) {
  std::string text;
  for (const RaceSummaryLine& line : SummarizeRaces(races)) {
    text += line.symbol + ":" + std::to_string(line.write_write) + ":" +
            std::to_string(line.read_write) + ":" + std::to_string(line.first_epoch) + "\n";
  }
  return text;
}

// One fresh system: construct, set up, run, verify. The wall time covers all
// of it, as a caller rerunning a workload would pay.
Run RunOnce(const CatalogRequest& request, const fault::FaultPlan& plan) {
  const auto start = std::chrono::steady_clock::now();
  DsmOptions options;
  options.num_nodes = kNodes;
  options.fault_plan = plan;
  std::unique_ptr<ParallelApp> app = MakeCatalogApp(request);
  DsmSystem system(options);
  app->Setup(system);
  RunResult result = system.Run([&app](NodeContext& ctx) { app->Run(ctx); });
  Run run;
  run.verified = app->Verify();
  run.summary = Summary(result.races);
  run.races = std::move(result.races);
  run.recovery = result.recovery;
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return run;
}

void WriteCell(std::ofstream& out, const ModeResult& m, const char* extra, bool last) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "  {\"mode\": \"%s\", \"nodes\": %d, \"requests\": %llu, "
                "\"completed\": %llu, \"failed\": %llu, \"workloads_per_sec\": %.3f, "
                "\"total_wall_s\": %.4f, \"p50_latency_s\": %.6f, "
                "\"mean_latency_s\": %.6f%s}%s\n",
                m.mode.c_str(), kNodes, static_cast<unsigned long long>(m.requests),
                static_cast<unsigned long long>(m.completed),
                static_cast<unsigned long long>(m.requests - m.completed),
                m.per_sec(), m.total_wall_s, m.p50_s(), m.mean_s(), extra, last ? "" : ",");
  out << buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_recovery [--smoke]\n");
      return 2;
    }
  }
  struct MixEntry {
    const char* app;
    int64_t size;
  };
  const std::vector<MixEntry> mix = smoke
      ? std::vector<MixEntry>{{"sor", 32}, {"water", 64}, {"fft", 32}}
      : std::vector<MixEntry>{{"sor", 128}, {"water", 125}, {"fft", 64}};
  const int reps = smoke ? 3 : 6;
  std::printf("crash recovery: 3 apps x %d rep(s) on %d nodes, clean vs crash + reboot\n\n",
              reps, kNodes);

  ModeResult clean_mode;
  clean_mode.mode = "clean";
  ModeResult crash_mode;
  crash_mode.mode = "crash_reboot";
  bool crash_prefix_match = true;
  bool reboot_match = true;
  uint64_t seed = 1;
  for (int rep = 0; rep < reps; ++rep) {
    for (const MixEntry& entry : mix) {
      CatalogRequest request;
      request.app = entry.app;
      request.size = entry.size;
      request.seed = seed++;  // Vary the inputs and the crash victim.
      // The workload seed doubles as the fault seed, as in cvm_run.
      const fault::FaultPlan crash_plan =
          fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, request.seed);
      fault::FaultPlan reboot_plan = crash_plan;
      reboot_plan.crash_epoch = -1;

      const Run clean = RunOnce(request, fault::FaultPlan{});
      const Run crashed = RunOnce(request, crash_plan);
      const Run rebooted = RunOnce(request, reboot_plan);

      std::vector<RaceReport> prefix;
      for (const RaceReport& report : clean.races) {
        if (report.epoch <= crashed.recovery.last_consistent_epoch) {
          prefix.push_back(report);
        }
      }
      const bool prefix_ok = crashed.recovery.crashed && crashed.summary == Summary(prefix);
      const bool reboot_ok = !rebooted.recovery.crashed && rebooted.summary == clean.summary;
      if (!prefix_ok) {
        std::fprintf(stderr,
                     "error: %s seed %llu: crashed=%s, consistent through %d, reports "
                     "differ from the clean prefix\n  expected:\n%s  got:\n%s",
                     entry.app, static_cast<unsigned long long>(request.seed),
                     crashed.recovery.crashed ? "yes" : "NO",
                     crashed.recovery.last_consistent_epoch, Summary(prefix).c_str(),
                     crashed.summary.c_str());
      }
      if (!reboot_ok) {
        std::fprintf(stderr,
                     "error: %s seed %llu: reboot reports differ from clean\n"
                     "  clean:\n%s  rebooted:\n%s",
                     entry.app, static_cast<unsigned long long>(request.seed),
                     clean.summary.c_str(), rebooted.summary.c_str());
      }
      crash_prefix_match = crash_prefix_match && prefix_ok;
      reboot_match = reboot_match && reboot_ok;

      clean_mode.Add(clean.verified, clean.wall_s);
      crash_mode.Add(rebooted.verified, crashed.wall_s + rebooted.wall_s);
    }
  }

  TablePrinter table({"Mode", "Workloads", "Verified", "Wl/s", "p50 ms", "Mean ms"});
  for (const ModeResult* m : {&clean_mode, &crash_mode}) {
    table.AddRow({m->mode, std::to_string(m->requests), std::to_string(m->completed),
                  TablePrinter::Fixed(m->per_sec(), 2), TablePrinter::Fixed(m->p50_s() * 1e3, 2),
                  TablePrinter::Fixed(m->mean_s() * 1e3, 2)});
  }
  table.Print();
  std::printf("\ncrash prefix identical: %s; reboot identical: %s\n",
              crash_prefix_match ? "yes" : "NO", reboot_match ? "yes" : "NO");
  std::printf("surviving a crash on every workload costs %.2fx the clean wall time\n",
              crash_mode.total_wall_s / clean_mode.total_wall_s);

  std::ofstream out("BENCH_recovery.json");
  char identities[128];
  std::snprintf(identities, sizeof(identities),
                ", \"crash_prefix_match\": %s, \"reboot_match\": %s",
                crash_prefix_match ? "true" : "false", reboot_match ? "true" : "false");
  out << "[\n";
  WriteCell(out, clean_mode, "", /*last=*/false);
  WriteCell(out, crash_mode, identities, /*last=*/true);
  out << "]\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write BENCH_recovery.json\n");
    return 1;
  }
  std::printf("wrote BENCH_recovery.json\n");
  const bool all_verified =
      clean_mode.completed == clean_mode.requests && crash_mode.completed == crash_mode.requests;
  return crash_prefix_match && reboot_match && all_verified ? 0 : 1;
}
