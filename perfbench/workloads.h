// The benchmark's workloads, the race-checked runs they are made of, and the
// correctness oracle every run is held to.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/apps/app.h"
#include "src/dsm/dsm.h"

namespace perfbench {

// One app at one configuration. Every DsmOptions field keeps its default
// except num_nodes, race_detection and (halo only) page_size.
struct CaseSpec {
  std::string app;  // fft | sor | tsp | water | lu (catalog) or halo.
  int64_t size = -1;
  int nodes = 8;
  uint64_t page_size = 4096;
};

// Median of `values`; 0 when empty.
double Median(std::vector<double> values);

// The cases one pass of `workload` runs; empty for an unknown name.
std::vector<CaseSpec> WorkloadCases(const std::string& workload);

// Knobs the negative self-tests turn; a benchmark run leaves them off.
struct Mutation {
  bool fix_water_bug = false;     // Water without its virial race.
  bool halo_skip_racy_write = false;  // Halo without its racy write.
};

// The neighbour-halo SPMD body of bench/bench_scaling.cc: each epoch every
// node writes the head of its own page plus one word of its right
// neighbour's page (one write-write race per node per epoch) and reads an
// unwritten word of that page (a false-sharing check pair).
class HaloApp : public cvm::ParallelApp {
 public:
  static constexpr int kEpochs = 30;    // 29 explicit barriers + the final one.
  static constexpr int kOwnWrites = 4;  // Words 0..3 of the node's own page.

  HaloApp(uint64_t seed, bool skip_racy_write);

  // Word the neighbour races on; drawn from the input seed.
  uint32_t race_word() const { return race_word_; }

  std::string name() const override { return "Halo"; }
  std::string input_description() const override { return "1 page per node"; }
  std::string sync_description() const override { return "barrier"; }
  cvm::InstructionMix instruction_mix() const override { return {}; }
  void Setup(cvm::DsmSystem& system) override;
  void Run(cvm::NodeContext& ctx) override;
  bool Verify() const override { return !mismatch_; }

 private:
  uint32_t race_word_ = 0;
  uint32_t stale_word_ = 0;
  bool skip_racy_write_ = false;
  size_t words_per_page_ = 0;
  cvm::SharedArray<int32_t> data_;
  std::atomic<bool> mismatch_{false};
};

// The input seed `spec` runs on in the pass whose seed is `pass_seed`.
uint64_t CaseInputSeed(const CaseSpec& spec, uint64_t pass_seed);

std::unique_ptr<cvm::ParallelApp> MakeApp(const CaseSpec& spec, uint64_t input_seed,
                                          const Mutation& mutation = {});

cvm::DsmOptions MakeOptions(const CaseSpec& spec, bool detect, bool metrics);

// Outcome of one DsmSystem run of one case.
struct CaseRun {
  double setup_s = 0;   // DsmSystem construction + Alloc + app Setup.
  double app_setup_s = 0;  // The app Setup call alone.
  double run_s = 0;     // DsmSystem::Run.
  double verify_s = 0;  // ParallelApp::Verify.
  cvm::RunResult result;
  // Counters only the metrics registry has (zero unless `metrics`).
  uint64_t locks_acquired = 0;
  uint64_t page_installs = 0;
  uint64_t page_invalidations = 0;
  std::string failure;  // Empty when the run passed the oracle.
};

CaseRun RunCase(const CaseSpec& spec, bool detect, uint64_t input_seed, bool metrics,
                SpanRecorder* spans, const Mutation& mutation = {});

// The oracle: "" when `result` is what the case must produce, else why not.
// FFT, SOR and LU report no races; TSP reports only read-write races on
// tsp_min_tour, at least one; Water reports exactly its reference
// write-write and read-write counts on water_virial; halo reports exactly
// nodes x epochs write-write races on its racy word. A run without detection
// reports nothing. Every run must verify and leave no message unhandled.
std::string CheckRun(const CaseSpec& spec, const cvm::ParallelApp& app, bool detect,
                     bool verified, const cvm::RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
