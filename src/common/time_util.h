#ifndef MAXSON_COMMON_TIME_UTIL_H_
#define MAXSON_COMMON_TIME_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace maxson {

/// Dates in this repository are day indexes relative to an arbitrary epoch
/// (the first day of a generated trace is day 0). A DateId of -1 means
/// "unknown / not set".
using DateId = int32_t;

/// Formats a day index as "day N" plus an ISO-like synthetic date string
/// ("2019-01-01" + N days) so printed experiment output resembles the paper.
std::string FormatDate(DateId date);

/// The one clock every timing site in src/ reads. tools/lint.py bans direct
/// std::chrono clock calls outside this header so elapsed-time measurements
/// share a single monotonic clock and never silently mix in wall time.
using MonotonicClock = std::chrono::steady_clock;
using MonotonicTime = MonotonicClock::time_point;

inline MonotonicTime MonotonicNow() { return MonotonicClock::now(); }

/// Microseconds from `since` to `until`, saturating at 0 for reversed pairs.
inline uint64_t ElapsedMicros(MonotonicTime since, MonotonicTime until) {
  if (until < since) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(until - since)
          .count());
}

/// Seconds from `since` to `until` (negative for reversed pairs).
inline double SecondsBetween(MonotonicTime since, MonotonicTime until) {
  return std::chrono::duration<double>(until - since).count();
}

/// Monotonic stopwatch used by the engine's metrics and the benches.
class Stopwatch {
 public:
  Stopwatch() : start_(MonotonicNow()) {}

  void Reset() { start_ = MonotonicNow(); }

  /// Elapsed seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return SecondsBetween(start_, MonotonicNow());
  }

  /// Elapsed milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  MonotonicTime start_;
};

}  // namespace maxson

#endif  // MAXSON_COMMON_TIME_UTIL_H_
