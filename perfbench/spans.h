// Benchmark-side span recorder. Spans wrap calls from the benchmark into
// the program's layers (the program's own obs::TraceRecorder stays off), are
// kept in memory, and are written as Chrome-trace JSON when the run ends.
#ifndef MAXSON_PERFBENCH_SPANS_H_
#define MAXSON_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span. Ids are unique per run; `parent` is the id of the
/// span that was open on the same thread when this one started.
struct Span {
  const char* name = "";
  double start_us = 0;  // since the tracer was created
  double end_us = 0;
  int64_t id = 0;
  int64_t parent = -1;   // -1 at the root
  int64_t request = -1;  // timed request id, -1 outside the timed stream
  int lane = 0;          // 0 = main thread, 1.. = client threads
};

/// Per-name totals derived from the spans: count, summed duration, and
/// summed self time (duration minus the time its child spans cover).
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Records spans into one buffer per lane, so concurrent clients never
/// share a buffer. A thread picks its lane with SetLane() before its first
/// span; lanes must be distinct per live thread.
class Tracer {
 public:
  explicit Tracer(int lanes)
      : epoch_(std::chrono::steady_clock::now()),
        lanes_(static_cast<size_t>(lanes)) {
    for (std::vector<Span>& lane : lanes_) lane.reserve(1 << 14);
  }

  static void SetLane(int lane) { CurrentLane() = lane; }

  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Opens a span on the calling thread's lane; returns its index there.
  size_t Open(const char* name, int64_t request) {
    const int lane = CurrentLane();
    std::vector<Span>& buffer = lanes_[static_cast<size_t>(lane)];
    std::vector<int64_t>& stack = OpenStack();
    Span span;
    span.name = name;
    span.lane = lane;
    span.id = (static_cast<int64_t>(lane) << 40) |
              static_cast<int64_t>(buffer.size());
    span.parent = stack.empty() ? -1 : stack.back();
    span.request = request;
    span.start_us = NowMicros();
    buffer.push_back(span);
    stack.push_back(span.id);
    return buffer.size() - 1;
  }

  void Close(size_t index) {
    Span& span = lanes_[static_cast<size_t>(CurrentLane())][index];
    span.end_us = NowMicros();
    OpenStack().pop_back();
  }

  /// Every span of every lane, in lane order.
  std::vector<Span> All() const {
    std::vector<Span> all;
    for (const std::vector<Span>& lane : lanes_) {
      all.insert(all.end(), lane.begin(), lane.end());
    }
    return all;
  }

  /// Totals per span name; children of a span run on its own lane and do
  /// not overlap, so the time they cover is the sum of their durations.
  std::map<std::string, SpanTotals> Totals() const {
    const std::vector<Span> all = All();
    std::map<int64_t, double> child_ms;
    for (const Span& s : all) {
      if (s.parent >= 0) child_ms[s.parent] += (s.end_us - s.start_us) / 1e3;
    }
    std::map<std::string, SpanTotals> totals;
    for (const Span& s : all) {
      SpanTotals& t = totals[s.name];
      const double ms = (s.end_us - s.start_us) / 1e3;
      ++t.count;
      t.total_ms += ms;
      const auto it = child_ms.find(s.id);
      t.self_ms += ms - (it == child_ms.end() ? 0.0 : it->second);
    }
    return totals;
  }

  /// Writes the spans as Chrome-trace JSON ("X" events, microseconds);
  /// `metadata` must be a JSON object text and lands under "otherData".
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,",
                 metadata.c_str());
    std::fprintf(f, "\"traceEvents\":[");
    bool first = true;
    for (const Span& s : All()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"request\":%lld}}",
                   first ? "" : ",", s.name, s.lane, s.start_us,
                   s.end_us - s.start_us, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int& CurrentLane() {
    thread_local int lane = 0;
    return lane;
  }
  static std::vector<int64_t>& OpenStack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::vector<Span>> lanes_;
};

/// RAII span; a null tracer records nothing, which is how untraced runs
/// and untraced blocks of the traced run skip recording.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request = -1)
      : tracer_(tracer),
        index_(tracer == nullptr ? 0 : tracer->Open(name, request)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t index_;
};

}  // namespace perfbench

#endif  // MAXSON_PERFBENCH_SPANS_H_
