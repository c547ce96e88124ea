// Race reports: what the system prints when a data race is detected (§6.1 —
// the shared-segment address plus the two interval indexes, symbolized via
// the allocator's symbol table).
#ifndef CVM_RACE_RACE_REPORT_H_
#define CVM_RACE_RACE_REPORT_H_

#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/vc/vector_clock.h"

namespace cvm {

struct IntervalRecord;

enum class RaceKind : uint8_t {
  kWriteWrite,
  kReadWrite,
};

const char* RaceKindName(RaceKind kind);

// One side of a race's causal evidence: the interval's identity plus the
// version vector that made the concurrency test fire. `resolved` is false
// when the interval record had already left the log (shouldn't happen at
// publish time — provenance is attached before barrier-release GC — but the
// report stays printable either way).
struct RaceAccessProvenance {
  IntervalId interval;
  VectorClock vc;
  EpochId epoch = -1;
  bool resolved = false;
};

// The causal chain that exposed a race: both intervals' timestamps, the sync
// ops that (fail to) order the accesses, and the barrier check that caught
// it. AttachProvenance captures the structured fields (the log they come
// from is collected right after); FormatProvenance and RaceReportsToJson
// render the human-readable chain from them on demand.
struct RaceProvenance {
  RaceAccessProvenance a;
  RaceAccessProvenance b;
  EpochId detect_epoch = -1;
  bool attached = false;  // Set by AttachProvenance.

  bool empty() const { return !attached; }
};

struct RaceReport {
  RaceKind kind = RaceKind::kReadWrite;
  PageId page = -1;
  uint32_t word = 0;       // Word index within the page.
  GlobalAddr addr = 0;     // page * page_size + word * kWordSize.
  std::string symbol;      // "tour_bound+0" etc.; empty if unsymbolized.
  IntervalId interval_a;   // The writer for kReadWrite when derivable.
  IntervalId interval_b;
  EpochId epoch = -1;
  RaceProvenance provenance;

  std::string ToString() const;

  // Identity for deduplication: same word, same interval pair, same kind.
  bool SameRace(const RaceReport& other) const;
};

// Fills report.provenance from the interval records the detector compared
// (either may be null if already garbage-collected): their vector clocks and
// epochs, which the rendered chain needs after the records are collected.
void AttachProvenance(RaceReport& report, const IntervalRecord* a, const IntervalRecord* b);

// Multi-line human rendering of a report's provenance chain: the two-
// comparison concurrency test (§4) in terms of the actual vector-clock
// entries and the sync ops delimiting each interval. A one-line
// "(no provenance recorded)" fallback when none was attached.
std::string FormatProvenance(const RaceReport& report);

// JSON array of reports with their provenance, for tool consumption
// (trace_summary --race-explain).
std::string RaceReportsToJson(const std::vector<RaceReport>& reports);

// Per-variable rollup of a report list, for human-facing summaries.
struct RaceSummaryLine {
  std::string symbol;      // Base symbol (offset stripped).
  uint64_t write_write = 0;
  uint64_t read_write = 0;
  EpochId first_epoch = -1;
};
std::vector<RaceSummaryLine> SummarizeRaces(const std::vector<RaceReport>& reports);

// §6.4 "first races": all first races must occur in the earliest barrier
// epoch that contains any race, because barrier semantics order everything
// across epochs. Returns only that epoch's reports.
std::vector<RaceReport> FilterFirstRaces(const std::vector<RaceReport>& reports);

}  // namespace cvm

#endif  // CVM_RACE_RACE_REPORT_H_
