#include "src/race/race_report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/protocol/interval.h"

namespace cvm {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// "sigma_3^7" — the paper's notation for node 3's interval 7.
std::string Sigma(const IntervalId& id) {
  return "sigma_" + std::to_string(id.node) + "^" + std::to_string(id.index);
}

std::string DescribeSide(const RaceAccessProvenance& side) {
  std::ostringstream out;
  out << Sigma(side.interval) << " on node " << side.interval.node;
  if (side.resolved) {
    out << " (epoch " << side.epoch << ", vc " << side.vc.ToString() << ")";
  } else {
    out << " (record garbage-collected before provenance capture)";
  }
  return out.str();
}

// The report's provenance chain, one step per line; empty when none was
// attached. Rendered on demand from the fields AttachProvenance captured.
std::vector<std::string> ProvenanceChain(const RaceReport& report) {
  const RaceProvenance& prov = report.provenance;
  if (prov.empty()) {
    return {};
  }
  const IntervalId& ia = prov.a.interval;
  const IntervalId& ib = prov.b.interval;
  std::vector<std::string> chain;
  chain.push_back("access A: " + DescribeSide(prov.a));
  chain.push_back("access B: " + DescribeSide(prov.b));
  {
    // The sync ops delimiting each access: interval i on node p spans p's
    // sync operations #i and #(i+1) — those are the only orderings the
    // detector (and the program) has for the access.
    std::ostringstream out;
    out << "ordering: node " << ia.node << "'s sync op #" << ia.index << " -> access A -> sync op #"
        << ia.index + 1 << "; node " << ib.node << "'s sync op #" << ib.index
        << " -> access B -> sync op #" << ib.index + 1;
    chain.push_back(out.str());
  }
  if (prov.a.resolved && prov.b.resolved) {
    // The two-comparison concurrency test (§4), spelled out with the entries
    // that failed: neither interval had seen the other's creation.
    std::ostringstream out;
    out << "concurrency test: vc_" << Sigma(ib) << "[" << ia.node
        << "]=" << prov.b.vc.At(ia.node) << " < " << ia.index << " and vc_" << Sigma(ia) << "["
        << ib.node << "]=" << prov.a.vc.At(ib.node) << " < " << ib.index
        << " — no release/acquire chain connects the accesses";
    chain.push_back(out.str());
  } else {
    chain.push_back(
        "concurrency test: intervals concurrent per the two-comparison test "
        "(version vectors unavailable)");
  }
  {
    std::ostringstream out;
    out << "exposed at the epoch-" << prov.detect_epoch
        << " barrier check, when both intervals' notices first met at the master";
    chain.push_back(out.str());
  }
  return chain;
}

}  // namespace

const char* RaceKindName(RaceKind kind) {
  switch (kind) {
    case RaceKind::kWriteWrite:
      return "write-write";
    case RaceKind::kReadWrite:
      return "read-write";
  }
  return "?";
}

std::string RaceReport::ToString() const {
  std::ostringstream out;
  out << "DATA RACE (" << RaceKindName(kind) << ") at "
      << (symbol.empty() ? ("addr 0x" + [this] {
            std::ostringstream hex;
            hex << std::hex << addr;
            return hex.str();
          }())
                         : symbol)
      << " [page " << page << " word " << word << "] between " << interval_a.ToString() << " and "
      << interval_b.ToString() << " (epoch " << epoch << ")";
  return out.str();
}

bool RaceReport::SameRace(const RaceReport& other) const {
  const bool same_pair = (interval_a == other.interval_a && interval_b == other.interval_b) ||
                         (interval_a == other.interval_b && interval_b == other.interval_a);
  return kind == other.kind && page == other.page && word == other.word && same_pair;
}

std::vector<RaceSummaryLine> SummarizeRaces(const std::vector<RaceReport>& reports) {
  std::vector<RaceSummaryLine> lines;
  for (const RaceReport& report : reports) {
    const std::string symbol = report.symbol.substr(0, report.symbol.find('+'));
    RaceSummaryLine* line = nullptr;
    for (RaceSummaryLine& existing : lines) {
      if (existing.symbol == symbol) {
        line = &existing;
        break;
      }
    }
    if (line == nullptr) {
      lines.push_back(RaceSummaryLine{symbol, 0, 0, report.epoch});
      line = &lines.back();
    }
    if (report.kind == RaceKind::kWriteWrite) {
      ++line->write_write;
    } else {
      ++line->read_write;
    }
    line->first_epoch = std::min(line->first_epoch, report.epoch);
  }
  return lines;
}

void AttachProvenance(RaceReport& report, const IntervalRecord* a, const IntervalRecord* b) {
  RaceProvenance& prov = report.provenance;
  prov.detect_epoch = report.epoch;
  prov.a.interval = report.interval_a;
  prov.b.interval = report.interval_b;
  if (a != nullptr) {
    prov.a.vc = a->vc;
    prov.a.epoch = a->epoch;
    prov.a.resolved = true;
  }
  if (b != nullptr) {
    prov.b.vc = b->vc;
    prov.b.epoch = b->epoch;
    prov.b.resolved = true;
  }
  prov.attached = true;
}

std::string FormatProvenance(const RaceReport& report) {
  if (report.provenance.empty()) {
    return "  (no provenance recorded)\n";
  }
  std::string out;
  for (const std::string& line : ProvenanceChain(report)) {
    out += "  " + line + "\n";
  }
  return out;
}

std::string RaceReportsToJson(const std::vector<RaceReport>& reports) {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const RaceReport& r = reports[i];
    const RaceProvenance& p = r.provenance;
    out << "  {\"kind\":\"" << RaceKindName(r.kind) << "\",\"page\":" << r.page
        << ",\"word\":" << r.word << ",\"addr\":" << r.addr << ",\"symbol\":\""
        << JsonEscape(r.symbol) << "\",\"epoch\":" << r.epoch << ",\n   \"interval_a\":{\"node\":"
        << r.interval_a.node << ",\"index\":" << r.interval_a.index
        << ",\"resolved\":" << (p.a.resolved ? "true" : "false") << ",\"epoch\":" << p.a.epoch
        << ",\"vc\":\"" << JsonEscape(p.a.resolved ? p.a.vc.ToString() : "") << "\"},\n"
        << "   \"interval_b\":{\"node\":" << r.interval_b.node
        << ",\"index\":" << r.interval_b.index
        << ",\"resolved\":" << (p.b.resolved ? "true" : "false") << ",\"epoch\":" << p.b.epoch
        << ",\"vc\":\"" << JsonEscape(p.b.resolved ? p.b.vc.ToString() : "") << "\"},\n"
        << "   \"detect_epoch\":" << p.detect_epoch << ",\"chain\":[";
    const std::vector<std::string> chain = ProvenanceChain(r);
    for (size_t j = 0; j < chain.size(); ++j) {
      out << (j > 0 ? "," : "") << "\"" << JsonEscape(chain[j]) << "\"";
    }
    out << "]}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.str();
}

std::vector<RaceReport> FilterFirstRaces(const std::vector<RaceReport>& reports) {
  if (reports.empty()) {
    return {};
  }
  EpochId first_epoch = reports.front().epoch;
  for (const RaceReport& r : reports) {
    first_epoch = std::min(first_epoch, r.epoch);
  }
  std::vector<RaceReport> out;
  for (const RaceReport& r : reports) {
    if (r.epoch == first_epoch) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace cvm
