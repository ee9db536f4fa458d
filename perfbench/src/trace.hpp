// Span recorder for the benchmark's own code. Spans are taken around calls
// into the iokc layers (never inside them), kept in per-thread memory while
// the run goes on, and written out as a Chrome trace when it ends. With
// tracing off a Span costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds elapsed since `start`.
inline double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // spans of one request share this id
  std::uint32_t thread = 0;

  double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1000.0;
  }
};

class Tracer {
 public:
  static void set_enabled(bool enabled);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  /// Every span recorded so far, from every thread. Call it only while no
  /// other thread records.
  static std::vector<SpanRecord> collect();
  /// Durations in microseconds of the spans named `name`, grouped by name.
  static std::map<std::string, std::vector<double>> durations_by_name();
  static void write_chrome_trace(const std::filesystem::path& path);

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span. The enclosing span on the same thread becomes its parent.
class Span {
 public:
  explicit Span(std::string_view name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_ = false;
  std::string name_;
  std::int64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Quantile q of samples in the order they were taken. The series is cut
/// into consecutive chunks of at least max(200, 10 / (1 - q)) samples, so
/// each chunk has ten samples beyond its quantile. The result is the mean
/// of the chunks' quantiles, leaving out the highest and lowest tenth of
/// the chunks. The machine's speed drifts for seconds at a time; averaging
/// the chunks moves smoothly with how long each speed lasted, where one
/// pooled quantile jumps to whichever speed held most samples.
double chunked_quantile(const std::vector<double>& ordered, double q);

}  // namespace perfbench
