// In-memory span recorder for the benchmark's traced run. The benchmark is
// single-threaded, so an open-span stack gives every span its parent. Spans
// are kept in memory and written out once, at the end of the run, as a
// Chrome trace-event JSON file (viewable in Perfetto). A span's layer is the
// prefix of its name before the first '.', e.g. "race" for
// "race.build_checklist".
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  int id = 0;
  int parent = -1;  // -1 = root.
  std::string name;
  uint64_t start_ns = 0;  // Since the recorder was created.
  uint64_t end_ns = 0;
  uint64_t seed = 0;  // Input seed of the pass the span belongs to.

  std::string layer() const { return name.substr(0, name.find('.')); }
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanRecorder {
 public:
  // `run_id` is shared by every span of one benchmark run.
  explicit SpanRecorder(std::string run_id)
      : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

  int Open(const std::string& name, uint64_t seed) {
    SpanRecord span;
    span.id = static_cast<int>(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.name = name;
    span.seed = seed;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  // Closes the innermost open span, which must be `id`.
  void Close(int id) {
    stack_.pop_back();
    spans_[static_cast<size_t>(id)].end_ns = Now();
  }

  // Self time per layer: each span's duration minus the part its direct
  // children cover, summed by layer.
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const SpanRecord& span : spans_) {
      if (span.parent >= 0) {
        child_s[static_cast<size_t>(span.parent)] += span.seconds();
      }
    }
    std::map<std::string, double> self;
    for (const SpanRecord& span : spans_) {
      self[span.layer()] += span.seconds() - child_s[static_cast<size_t>(span.id)];
    }
    return self;
  }

  bool WriteChromeJson(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(out,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"run\": \"%s\", "
                   "\"span\": %d, \"parent\": %d, \"seed\": %llu}}%s\n",
                   s.name.c_str(), s.layer().c_str(), static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, run_id_.c_str(), s.id,
                   s.parent, static_cast<unsigned long long>(s.seed),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  uint64_t Now() const {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - origin_)
                                     .count());
  }

  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

// Times one call: always measures wall seconds, and records a span when a
// recorder is attached (the traced run).
class Timed {
 public:
  Timed(SpanRecorder* recorder, const std::string& name, uint64_t seed)
      : recorder_(recorder), start_(std::chrono::steady_clock::now()) {
    if (recorder_ != nullptr) {
      id_ = recorder_->Open(name, seed);
    }
  }
  ~Timed() {
    if (!stopped_) {
      Stop();
    }
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double Stop() {
    stopped_ = true;
    if (recorder_ != nullptr) {
      recorder_->Close(id_);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  SpanRecorder* recorder_;
  std::chrono::steady_clock::time_point start_;
  int id_ = -1;
  bool stopped_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
