// perfbench: the repository benchmark. Runs one workload of race-checked DSM
// runs for a fixed time and prints every metric by name and unit; the last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See perfbench/README.md for the workloads, the metrics and what each
// per-layer metric is expected to move.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]
//   perfbench --selftest
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/common/rng.h"

namespace perfbench {
namespace {

using namespace cvm;
using Clock = std::chrono::steady_clock;

// Seed of pass `pass` of a run with seed `seed`. Every pass gets fresh
// inputs, so a run's medians cover many inputs rather than one.
uint64_t PassSeed(uint64_t seed, uint64_t pass) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + pass);
  const uint64_t s = rng.Next();
  return s == 0 ? 1 : s;
}

// The held-out pass draws from a stream no measured pass uses.
constexpr uint64_t kHeldOutPass = 1ull << 40;

// Per-case samples, one entry per measured pass.
struct Samples {
  std::map<std::string, std::vector<double>> on;   // Detection on.
  std::map<std::string, std::vector<double>> off;  // Detection off.
  std::vector<double> setup_s;                     // Both modes.
  std::vector<double> app_setup_s;
  std::vector<double> verify_s;
};

void Record(Samples& samples, const CaseRun& run, bool detect) {
  std::map<std::string, std::vector<double>>& m = detect ? samples.on : samples.off;
  const RunResult& r = run.result;
  m["run_s"].push_back(run.run_s);
  m["sim_ns"].push_back(r.sim_time_ns);
  m["wire_bytes"].push_back(static_cast<double>(r.net.bytes));
  samples.setup_s.push_back(run.setup_s);
  samples.app_setup_s.push_back(run.app_setup_s);
  samples.verify_s.push_back(run.verify_s);
  if (!detect) {
    return;
  }
  m["instr.accesses"].push_back(static_cast<double>(r.access.instrumented_calls));
  m["dsm.page_faults"].push_back(static_cast<double>(r.page_faults));
  m["dsm.intervals"].push_back(static_cast<double>(r.intervals_total));
  m["dsm.barriers"].push_back(static_cast<double>(r.barriers));
  m["dsm.locks_acquired"].push_back(static_cast<double>(run.locks_acquired));
  m["mem.page_installs"].push_back(static_cast<double>(run.page_installs));
  m["mem.page_invalidations"].push_back(static_cast<double>(run.page_invalidations));
  m["net.messages"].push_back(static_cast<double>(r.net.messages));
  m["net.bitmap_mb"].push_back(static_cast<double>(r.pipeline.bitmap_bytes_wire) / 1e6);
  m["net.read_notice_mb"].push_back(static_cast<double>(r.net.read_notice_bytes) / 1e6);
  m["race.interval_comparisons"].push_back(static_cast<double>(r.detector.interval_comparisons));
  m["race.check_pairs"].push_back(static_cast<double>(r.detector.overlapping_pairs));
  m["race.bitmap_pairs_compared"].push_back(
      static_cast<double>(r.detector.bitmap_pairs_compared));
  m["race.reports"].push_back(static_cast<double>(r.races.size()));
  m["race.detect_sim_ms"].push_back(r.pipeline.detect_ns / 1e6);
  static const char* kBuckets[kNumBuckets] = {"sim.cvm_mods_ms", "sim.proc_call_ms",
                                              "sim.access_check_ms", "sim.intervals_ms",
                                              "sim.bitmaps_ms"};
  for (int b = 0; b < kNumBuckets; ++b) {
    m[kBuckets[b]].push_back(r.overhead_ns[b] / 1e6);
  }
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {paper-8n|lu-8n|halo-64n} --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n"
               "       perfbench --selftest\n");
  return 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// Pins the process, and so every node thread it starts, to the
// highest-numbered CPU it may run on. On a shared VM, handing work between
// threads on different CPUs costs a cross-CPU wake-up whose latency follows
// the host's load: unpinned host times moved up to 2.5x between quarter
// hours. On one CPU the hand-off is a context switch and host time tracks
// the work the program does. Returns the CPU, or -1 if pinning failed.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

// Sum over cases of the per-case median of `key`.
double SumOfMedians(const std::vector<Samples>& samples, bool detect, const std::string& key) {
  double total = 0;
  for (const Samples& s : samples) {
    const auto& m = detect ? s.on : s.off;
    const auto it = m.find(key);
    total += it == m.end() ? 0 : Median(it->second);
  }
  return total;
}

int RunBenchmark(const Options& opt) {
  const std::vector<CaseSpec> cases = WorkloadCases(opt.workload);
  if (cases.empty()) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", opt.workload.c_str());
    return Usage();
  }
  const std::string run_id = opt.workload + "-seed" + std::to_string(opt.seed) +
                             (opt.trace ? "-traced" : "");
  SpanRecorder recorder(run_id);
  SpanRecorder* spans = opt.trace ? &recorder : nullptr;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opt.seconds);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto check = [&](const std::string& what, const std::string& failure) {
    ++attempted;
    if (!failure.empty()) {
      ++failed;
      std::printf("FAILED %s: %s\n", what.c_str(), failure.c_str());
    }
  };

  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "error: cannot pin the benchmark to one CPU\n");
    return 1;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d cpu=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, cpu);

  // Probes (traced run only), at the workload's node count and page size.
  std::vector<Metric> probe_metrics;
  if (opt.trace) {
    const int nodes = cases.front().nodes;
    const uint64_t page = cases.front().page_size;
    const ProbeResult access = AccessProbeNs(nodes, page, true, spans);
    const ProbeResult access_off = AccessProbeNs(nodes, page, false, spans);
    const ProbeResult barrier = BarrierProbeUs(nodes, page, spans);
    const ProbeResult lock = LockProbeUs(nodes, page, spans);
    const ProbeResult fault = FaultProbeUs(nodes, page, spans);
    const ProbeResult msg = NetMsgProbeUs(spans);
    check("dsm.access probe", access.failure);
    check("dsm.access_nodetect probe", access_off.failure);
    check("dsm.barrier probe", barrier.failure);
    check("dsm.lock probe", lock.failure);
    check("protocol.fault probe", fault.failure);
    check("net.msg probe", msg.failure);
    double checklist_s = 0;
    double compare_s = 0;
    for (const CaseSpec& spec : cases) {
      const ReplayResult replay =
          DetectorReplay(spec, CaseInputSeed(spec, PassSeed(opt.seed, 0)), spans);
      check("race replay of " + spec.app, replay.failure);
      checklist_s += replay.checklist_s;
      compare_s += replay.compare_s;
    }
    probe_metrics = {{"dsm.access_ns", access.value, "ns"},
                     {"dsm.access_ns_nodetect", access_off.value, "ns"},
                     {"dsm.barrier_us", barrier.value, "us"},
                     {"dsm.lock_us", lock.value, "us"},
                     {"protocol.fault_us", fault.value, "us"},
                     {"net.msg_us", msg.value, "us"},
                     {"race.checklist_s", checklist_s, "s"},
                     {"race.compare_s", compare_s, "s"}};
  }

  // Measured passes. In a traced run every case runs twice on the same
  // inputs, traced (metrics registry and spans on) and untraced, so the run
  // can report the tracing overhead.
  std::vector<Samples> measured(cases.size());
  std::vector<Samples> untraced(cases.size());
  std::vector<std::string> verdicts(cases.size());
  constexpr int kMinPasses = 3;
  int passes = 0;
  std::printf("\n%-6s %-6s %-20s %-6s %-6s %10s %10s %10s %7s  %s\n", "pass", "app",
              "input_seed", "detect", "traced", "setup_s", "run_s", "sim_ms", "races", "verdict");
  while (passes < kMinPasses || Clock::now() < deadline) {
    const uint64_t pass_seed = PassSeed(opt.seed, static_cast<uint64_t>(passes));
    for (size_t c = 0; c < cases.size(); ++c) {
      const uint64_t input_seed = CaseInputSeed(cases[c], pass_seed);
      for (const bool detect : {true, false}) {
        for (const bool traced : {true, false}) {
          if (traced && !opt.trace) {
            continue;
          }
          const CaseRun run = RunCase(cases[c], detect, input_seed, traced,
                                      traced ? spans : nullptr);
          check("pass " + std::to_string(passes) + " " + cases[c].app +
                    (detect ? " detect" : " nodetect") + (traced ? " traced" : ""),
                run.failure);
          if (detect && !run.failure.empty()) {
            verdicts[c] = run.failure;
          }
          Record(opt.trace && !traced ? untraced[c] : measured[c], run, detect);
          std::printf("%-6d %-6s %-20llu %-6d %-6d %10.6f %10.6f %10.3f %7zu  %s\n", passes,
                      cases[c].app.c_str(), static_cast<unsigned long long>(input_seed),
                      detect ? 1 : 0, traced ? 1 : 0, run.setup_s, run.run_s,
                      run.result.sim_time_ns / 1e6, run.result.races.size(),
                      run.failure.empty() ? "ok" : "FAIL");
        }
      }
    }
    ++passes;
  }

  // Held-out seed: one more pass on inputs no measured pass used; its oracle
  // verdict must match the measured passes'. Not part of any number.
  for (size_t c = 0; c < cases.size(); ++c) {
    const uint64_t held_out_seed = CaseInputSeed(cases[c], PassSeed(opt.seed, kHeldOutPass));
    const CaseRun run = RunCase(cases[c], true, held_out_seed, false, nullptr);
    const std::string verdict = run.failure.empty() ? "ok" : run.failure;
    const std::string measured_verdict = verdicts[c].empty() ? "ok" : verdicts[c];
    check("held-out seed " + std::to_string(held_out_seed) + " " + cases[c].app,
          (run.failure.empty()) == verdicts[c].empty()
              ? ""
              : "held-out verdict '" + verdict + "' differs from '" + measured_verdict + "'");
    std::printf("held-out %-6s input_seed=%llu races=%zu verdict=%s\n", cases[c].app.c_str(),
                static_cast<unsigned long long>(held_out_seed), run.result.races.size(),
                verdict.c_str());
  }

  // Per-case medians beside the workload totals, so one app's noise stays
  // visible instead of being averaged into the sum.
  std::printf("\nper-case medians over %d%s pass(es), input seeds PassSeed(%llu, 0..%d):\n",
              passes, opt.trace ? " traced" : "", static_cast<unsigned long long>(opt.seed),
              passes - 1);
  std::printf("%-8s %10s %12s %10s %12s %10s %10s\n", "case", "run_s", "base_run_s", "sim_ms",
              "base_sim_ms", "slowdown", "setup_s");
  double log_slowdown = 0;
  for (size_t c = 0; c < cases.size(); ++c) {
    const Samples& s = measured[c];
    const double sim_on = Median(s.on.at("sim_ns"));
    const double sim_off = Median(s.off.at("sim_ns"));
    const double slowdown = sim_off > 0 ? sim_on / sim_off : 0;
    log_slowdown += std::log(slowdown > 0 ? slowdown : 1);
    std::printf("%-8s %10.4f %12.4f %10.3f %12.3f %10.3f %10.6f\n", cases[c].app.c_str(),
                Median(s.on.at("run_s")), Median(s.off.at("run_s")), sim_on / 1e6,
                sim_off / 1e6, slowdown, Median(s.setup_s));
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    double setup_s = 0;
    for (const Samples& s : measured) {
      setup_s += Median(s.setup_s);
    }
    metrics = {
        {"run_s", SumOfMedians(measured, true, "run_s"), "s"},
        {"base_run_s", SumOfMedians(measured, false, "run_s"), "s"},
        {"sim_slowdown", std::exp(log_slowdown / static_cast<double>(cases.size())), "x"},
        {"sim_ms", SumOfMedians(measured, true, "sim_ns") / 1e6, "ms"},
        {"wire_mb", SumOfMedians(measured, true, "wire_bytes") / 1e6, "MB"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"ok_runs", static_cast<double>(attempted - failed) / static_cast<double>(attempted),
         "share"},
    };
  } else {
    metrics = probe_metrics;
    double app_setup_s = 0;
    double verify_s = 0;
    for (const Samples& s : measured) {
      app_setup_s += Median(s.app_setup_s);
      verify_s += Median(s.verify_s);
    }
    metrics.push_back({"apps.setup_s", app_setup_s, "s"});
    metrics.push_back({"apps.verify_s", verify_s, "s"});
    const std::vector<std::pair<std::string, std::string>> counts = {
        {"instr.accesses", "count"},         {"dsm.page_faults", "count"},
        {"dsm.intervals", "count"},          {"dsm.barriers", "count"},
        {"dsm.locks_acquired", "count"},     {"mem.page_installs", "count"},
        {"mem.page_invalidations", "count"}, {"net.messages", "count"},
        {"net.bitmap_mb", "MB"},             {"net.read_notice_mb", "MB"},
        {"race.interval_comparisons", "count"}, {"race.check_pairs", "count"},
        {"race.bitmap_pairs_compared", "count"}, {"race.reports", "count"},
        {"race.detect_sim_ms", "ms"},        {"sim.cvm_mods_ms", "ms"},
        {"sim.proc_call_ms", "ms"},          {"sim.access_check_ms", "ms"},
        {"sim.intervals_ms", "ms"},          {"sim.bitmaps_ms", "ms"}};
    for (const auto& [name, unit] : counts) {
      metrics.push_back({name, SumOfMedians(measured, true, name), unit});
    }
    const double comparisons = SumOfMedians(measured, true, "race.interval_comparisons");
    metrics.push_back(
        {"race.pair_yield",
         comparisons > 0 ? SumOfMedians(measured, true, "race.check_pairs") / comparisons
                         : 0,
         "ratio"});
    const double untraced_s = SumOfMedians(untraced, true, "run_s");
    metrics.push_back({"obs.bench_trace_overhead",
                       untraced_s > 0 ? SumOfMedians(measured, true, "run_s") / untraced_s
                                      : 0,
                       "ratio"});

    std::printf("\nself time by layer (traced spans):\n");
    for (const auto& [layer, seconds] : recorder.SelfSecondsByLayer()) {
      std::printf("  %-10s %10.4f s\n", layer.c_str(), seconds);
    }
    if (!opt.spans_out.empty()) {
      if (recorder.WriteChromeJson(opt.spans_out)) {
        std::printf("spans written to %s\n", opt.spans_out.c_str());
      } else {
        check("writing spans", "cannot write " + opt.spans_out);
      }
    }
  }

  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%llu of %llu checked runs failed\n", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

// Negative self-tests of the oracle: a run that lacks the race a workload
// must report is flagged, and the unmutated run passes.
int SelfTest() {
  struct Case {
    const char* what;
    CaseSpec spec;
    Mutation mutation;
    bool expect_flagged;
  };
  const CaseSpec water = WorkloadCases("paper-8n")[3];
  const CaseSpec halo = WorkloadCases("halo-64n")[0];
  Mutation fixed_water;
  fixed_water.fix_water_bug = true;
  Mutation no_racy_write;
  no_racy_write.halo_skip_racy_write = true;
  const std::vector<Case> tests = {
      {"water", water, {}, false},
      {"water with fix_water_bug", water, fixed_water, true},
      {"halo", halo, {}, false},
      {"halo without its racy write", halo, no_racy_write, true},
  };
  int bad = 0;
  for (const Case& t : tests) {
    const CaseRun run = RunCase(t.spec, true, 1, false, nullptr, t.mutation);
    const bool flagged = !run.failure.empty();
    const bool ok = flagged == t.expect_flagged;
    bad += ok ? 0 : 1;
    std::printf("%s %s: %s%s\n", ok ? "PASS" : "FAIL", t.what,
                flagged ? "flagged: " : "accepted", run.failure.c_str());
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      return perfbench::SelfTest();
    }
    if (i + 1 >= argc) {
      return perfbench::Usage();
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && opt.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (arg == "--spans-out") {
      opt.spans_out = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return perfbench::Usage();
  }
  return perfbench::RunBenchmark(opt);
}
