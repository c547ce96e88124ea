// Per-layer probes for the traced run. Each calls one layer's public
// functions from outside the program and returns a host-time figure, plus a
// self-check that the probe measured what it claims to.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {

struct ProbeResult {
  double value = 0;
  std::string failure;  // Empty when the self-check passed.
};

// NodeContext::Read/Write on a page the node owns and holds valid, in ns per
// access. Self-check: no page fault inside the timed loop.
ProbeResult AccessProbeNs(int nodes, uint64_t page_size, bool detect, SpanRecorder* spans);

// One empty Barrier() across `nodes` nodes, in microseconds.
ProbeResult BarrierProbeUs(int nodes, uint64_t page_size, SpanRecorder* spans);

// One Lock/Unlock pair on a lock whose token starts at another node, in
// microseconds.
ProbeResult LockProbeUs(int nodes, uint64_t page_size, SpanRecorder* spans);

// One read of a page another node wrote, in microseconds. Self-check:
// exactly one page fault per page read.
ProbeResult FaultProbeUs(int nodes, uint64_t page_size, SpanRecorder* spans);

// One Network::Send -> Recv hand-off between two threads, in microseconds.
ProbeResult NetMsgProbeUs(SpanRecorder* spans);

struct ReplayResult {
  double checklist_s = 0;  // RaceDetector::BuildCheckList over every epoch.
  double compare_s = 0;    // RaceDetector::CompareBitmaps over every epoch.
  std::string failure;     // Empty when the replay reproduced the online reports.
};

// Runs `spec` once with online detection and postmortem_trace both on, then
// replays the captured epochs through a fresh RaceDetector. Self-check: the
// replay's reports equal the online run's.
ReplayResult DetectorReplay(const CaseSpec& spec, uint64_t input_seed, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
