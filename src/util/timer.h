// Wall-clock timing helpers.
#ifndef DEMSORT_UTIL_TIMER_H_
#define DEMSORT_UTIL_TIMER_H_

#include <time.h>

#include <chrono>
#include <cstdint>

namespace demsort {

/// Monotonic wall clock in nanoseconds.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic wall clock in milliseconds (deadlines, retry backoff).
inline int64_t NowMillis() { return NowNanos() / 1'000'000; }

/// CPU time the calling thread has consumed, in nanoseconds. Unlike wall
/// time, it does not run while the thread is blocked or descheduled.
inline int64_t ThreadCpuNanos() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Stopwatch accumulating elapsed time across Start/Stop cycles.
class Stopwatch {
 public:
  void Start() { start_ns_ = NowNanos(); }
  void Stop() { accumulated_ns_ += NowNanos() - start_ns_; }
  void Reset() { accumulated_ns_ = 0; }

  int64_t elapsed_ns() const { return accumulated_ns_; }
  double elapsed_ms() const { return accumulated_ns_ * 1e-6; }
  double elapsed_s() const { return accumulated_ns_ * 1e-9; }

 private:
  int64_t start_ns_ = 0;
  int64_t accumulated_ns_ = 0;
};

/// RAII scope timer adding its lifetime to a nanosecond accumulator.
class ScopedTimer {
 public:
  explicit ScopedTimer(int64_t* sink_ns) : sink_ns_(sink_ns) {
    start_ns_ = NowNanos();
  }
  ~ScopedTimer() { *sink_ns_ += NowNanos() - start_ns_; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  int64_t* sink_ns_;
  int64_t start_ns_;
};

}  // namespace demsort

#endif  // DEMSORT_UTIL_TIMER_H_
