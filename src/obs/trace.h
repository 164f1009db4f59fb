#ifndef MAXSON_OBS_TRACE_H_
#define MAXSON_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/time_util.h"

namespace maxson::obs {

/// One completed span: a named interval on one thread. Timestamps are
/// microseconds relative to the owning recorder's construction.
struct TraceEvent {
  std::string name;      // "execute", "scan", "midnight.cache", ...
  std::string category;  // "query" / "midnight" / ...
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  uint64_t thread_id = 0;
};

/// Lightweight span recorder dumpable as chrome-trace JSON (load the dump
/// in chrome://tracing or Perfetto). Disabled recorders cost one relaxed
/// atomic load per span site; enabled ones take a mutex only at span end.
class TraceRecorder {
 public:
  TraceRecorder() : epoch_(MonotonicNow()) {}

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since the recorder was constructed.
  uint64_t NowMicros() const { return MicrosAt(MonotonicNow()); }
  /// Microseconds from the recorder's construction to `t` (0 before it).
  uint64_t MicrosAt(MonotonicTime t) const { return ElapsedMicros(epoch_, t); }

  void Record(TraceEvent event) MAXSON_EXCLUDES(mutex_);

  std::vector<TraceEvent> Snapshot() const MAXSON_EXCLUDES(mutex_);
  size_t size() const MAXSON_EXCLUDES(mutex_);
  void Clear() MAXSON_EXCLUDES(mutex_);

  /// Chrome trace-event JSON: {"traceEvents": [{"ph": "X", ...}]}.
  std::string ToChromeTraceJson() const MAXSON_EXCLUDES(mutex_);

 private:
  std::atomic<bool> enabled_{false};
  MonotonicTime epoch_;
  mutable Mutex mutex_;
  std::vector<TraceEvent> events_ MAXSON_GUARDED_BY(mutex_);
};

/// RAII scoped span: records [construction, destruction) into `recorder`
/// when it is non-null and enabled at construction time.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, std::string name, std::string category);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* recorder_;  // null when disabled at construction
  std::string name_;
  std::string category_;
  uint64_t start_us_ = 0;
};

}  // namespace maxson::obs

#endif  // MAXSON_OBS_TRACE_H_
