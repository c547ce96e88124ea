#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "src/dsm/handles.h"
#include "src/net/network.h"

namespace perfbench {

using namespace cvm;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kChunks = 5;  // Each probe reports the median of its chunks.

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

CaseSpec ProbeSpec(int nodes, uint64_t page_size) {
  CaseSpec spec;
  spec.app = "probe";
  spec.nodes = nodes;
  spec.page_size = page_size;
  return spec;
}

}  // namespace

ProbeResult AccessProbeNs(int nodes, uint64_t page_size, bool detect, SpanRecorder* spans) {
  constexpr int kAccessesPerChunk = 400000;
  Timed span(spans, detect ? "dsm.access_probe" : "dsm.access_probe_nodetect", 0);
  DsmSystem system(MakeOptions(ProbeSpec(nodes, page_size), detect, false));
  const size_t words = page_size / kWordSize;
  auto page = SharedArray<int32_t>::Alloc(system, "probe_page", words);
  std::vector<double> chunk_ns;
  uint64_t faults_in_loop = 0;
  system.Run([&](NodeContext& ctx) {
    if (ctx.id() != 0) {
      return;
    }
    page.Set(ctx, 0, 1);  // Take ownership; the page is now owned and valid.
    const uint64_t faults_before = ctx.page_faults();
    int32_t sum = 0;
    for (int chunk = 0; chunk < kChunks; ++chunk) {
      const auto start = Clock::now();
      for (int i = 0; i < kAccessesPerChunk; ++i) {
        const size_t word = static_cast<size_t>(i) % words;
        if (i % 2 == 0) {
          sum += page.Get(ctx, word);
        } else {
          page.Set(ctx, word, sum);
        }
      }
      chunk_ns.push_back(Since(start) * 1e9 / kAccessesPerChunk);
    }
    faults_in_loop = ctx.page_faults() - faults_before;
  });
  ProbeResult out;
  out.value = Median(chunk_ns);
  if (faults_in_loop != 0) {
    out.failure = "access probe took " + std::to_string(faults_in_loop) +
                  " page fault(s) inside its timed loop";
  }
  return out;
}

ProbeResult BarrierProbeUs(int nodes, uint64_t page_size, SpanRecorder* spans) {
  constexpr int kWarmup = 10;
  constexpr int kBarriersPerChunk = 40;
  Timed span(spans, "dsm.barrier_probe", 0);
  DsmSystem system(MakeOptions(ProbeSpec(nodes, page_size), true, false));
  std::vector<double> chunk_us;
  system.Run([&](NodeContext& ctx) {
    for (int i = 0; i < kWarmup; ++i) {
      ctx.Barrier();
    }
    for (int chunk = 0; chunk < kChunks; ++chunk) {
      const auto start = Clock::now();
      for (int i = 0; i < kBarriersPerChunk; ++i) {
        ctx.Barrier();
      }
      if (ctx.id() == 0) {
        chunk_us.push_back(Since(start) * 1e6 / kBarriersPerChunk);
      }
    }
  });
  return ProbeResult{Median(chunk_us), ""};
}

ProbeResult LockProbeUs(int nodes, uint64_t page_size, SpanRecorder* spans) {
  Timed span(spans, "dsm.lock_probe", 0);
  std::vector<double> chunk_us;
  // Lock tokens start at their manager (lock % nodes), so node 0's first
  // acquire of every lock managed elsewhere is remote. One system per chunk.
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    DsmSystem system(MakeOptions(ProbeSpec(nodes, page_size), true, false));
    system.Run([&](NodeContext& ctx) {
      if (ctx.id() != 0) {
        return;
      }
      const int locks = system.options().num_locks;
      int pairs = 0;
      const auto start = Clock::now();
      for (LockId lock = 0; lock < locks; ++lock) {
        if (lock % nodes != 0) {
          ctx.Lock(lock);
          ctx.Unlock(lock);
          ++pairs;
        }
      }
      chunk_us.push_back(Since(start) * 1e6 / pairs);
    });
  }
  return ProbeResult{Median(chunk_us), ""};
}

ProbeResult FaultProbeUs(int nodes, uint64_t page_size, SpanRecorder* spans) {
  constexpr size_t kPages = 256;
  Timed span(spans, "protocol.fault_probe", 0);
  std::vector<double> chunk_us;
  std::string failure;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    DsmSystem system(MakeOptions(ProbeSpec(nodes, page_size), true, false));
    const size_t words = page_size / kWordSize;
    auto pages = SharedArray<int32_t>::Alloc(system, "probe_pages", kPages * words);
    uint64_t faults = 0;
    system.Run([&](NodeContext& ctx) {
      if (ctx.id() == 1) {
        for (size_t p = 0; p < kPages; ++p) {
          pages.Set(ctx, p * words, static_cast<int32_t>(p));
        }
      }
      ctx.Barrier();
      if (ctx.id() == 0) {
        const uint64_t before = ctx.page_faults();
        int32_t sum = 0;
        const auto start = Clock::now();
        for (size_t p = 0; p < kPages; ++p) {
          sum += pages.Get(ctx, p * words);
        }
        chunk_us.push_back(Since(start) * 1e6 / kPages);
        faults = ctx.page_faults() - before;
        if (sum != static_cast<int32_t>(kPages * (kPages - 1) / 2)) {
          failure = "fault probe read stale page contents";
        }
      }
    });
    if (faults != kPages && failure.empty()) {
      failure = "fault probe took " + std::to_string(faults) + " page fault(s) reading " +
                std::to_string(kPages) + " pages";
    }
  }
  return ProbeResult{Median(chunk_us), failure};
}

ProbeResult NetMsgProbeUs(SpanRecorder* spans) {
  constexpr int kRoundTripsPerChunk = 2000;
  Timed span(spans, "net.msg_probe", 0);
  Network network(2);
  auto message = [](NodeId from, NodeId to) {
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.payload = HeartbeatProbeMsg{};
    return msg;
  };
  std::thread echo([&] {
    while (std::optional<Message> msg = network.Recv(1)) {
      network.Send(message(1, 0));
    }
  });
  std::vector<double> chunk_us;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    const auto start = Clock::now();
    for (int i = 0; i < kRoundTripsPerChunk; ++i) {
      network.Send(message(0, 1));
      (void)network.Recv(0);  // Blocks until the echo arrives; the fabric is open.
    }
    chunk_us.push_back(Since(start) * 1e6 / (2.0 * kRoundTripsPerChunk));
  }
  network.Close();
  echo.join();
  return ProbeResult{Median(chunk_us), ""};
}

ReplayResult DetectorReplay(const CaseSpec& spec, uint64_t input_seed, SpanRecorder* spans) {
  constexpr int kReplays = 3;
  ReplayResult out;
  Timed span(spans, "race.replay", input_seed);
  std::unique_ptr<ParallelApp> app = MakeApp(spec, input_seed);
  DsmOptions options = MakeOptions(spec, true, false);
  options.postmortem_trace = true;
  DsmSystem system(options);
  app->Setup(system);
  const RunResult online = system.Run([&](NodeContext& ctx) { app->Run(ctx); });

  std::map<EpochId, std::vector<IntervalRecord>> epochs;
  system.trace().ForEachRecord(
      [&](const IntervalRecord& record) { epochs[record.epoch].push_back(record); });
  std::map<std::pair<IntervalId, PageId>, PageAccessBitmaps> bitmaps;
  system.trace().ForEachBitmapPair(
      [&](const IntervalId& interval, PageId page, const PageAccessBitmaps& pair) {
        bitmaps.emplace(std::make_pair(interval, page), pair);
      });
  const BitmapLookup lookup = [&](const IntervalId& interval, PageId page) {
    const auto it = bitmaps.find(std::make_pair(interval, page));
    return it == bitmaps.end() ? nullptr : &it->second;
  };

  std::vector<double> checklist_s;
  std::vector<double> compare_s;
  std::vector<RaceReport> replayed;
  for (int replay = 0; replay < kReplays; ++replay) {
    RaceDetector detector(static_cast<int>(system.segment().num_pages()),
                          options.overlap_method);
    double build = 0;
    double compare = 0;
    replayed.clear();
    for (const auto& [epoch, records] : epochs) {
      Timed build_span(spans, "race.build_checklist", input_seed);
      const std::vector<CheckPair> pairs = detector.BuildCheckList(records);
      build += build_span.Stop();
      const size_t entries = RaceDetector::BitmapsNeeded(pairs).size();
      Timed compare_span(spans, "race.compare_bitmaps", input_seed);
      std::vector<RaceReport> races = detector.CompareBitmaps(pairs, lookup, epoch, entries);
      compare += compare_span.Stop();
      for (RaceReport& race : races) {
        const bool seen = std::any_of(replayed.begin(), replayed.end(),
                                      [&](const RaceReport& r) { return r.SameRace(race); });
        if (!seen) {
          replayed.push_back(std::move(race));
        }
      }
    }
    checklist_s.push_back(build);
    compare_s.push_back(compare);
  }
  out.checklist_s = Median(checklist_s);
  out.compare_s = Median(compare_s);

  bool same = replayed.size() == online.races.size();
  for (size_t i = 0; same && i < replayed.size(); ++i) {
    same = std::any_of(online.races.begin(), online.races.end(),
                       [&](const RaceReport& r) { return r.SameRace(replayed[i]); });
  }
  if (!same) {
    out.failure = "detector replay of " + spec.app + " gave " +
                  std::to_string(replayed.size()) + " report(s), the online run " +
                  std::to_string(online.races.size());
  }
  return out;
}

}  // namespace perfbench
