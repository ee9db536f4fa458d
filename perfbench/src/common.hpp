// Shared types of the benchmark program: the run options every workload
// receives and the outcome it reports.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for databases and workspaces; removed at exit.
  std::filesystem::path work_dir;
  /// Client threads (closed loop, one connection per target each).
  std::size_t clients = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. Oracle failures are collected as messages; any
/// message makes the run incorrect.
class Outcome {
 public:
  void add_metric(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Thread-safe: client threads report wrong answers as they see them.
  void fail_check(const std::string& message) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (check_failures_ < 20) {
      messages_.push_back(message);
    }
    ++check_failures_;
  }
  /// A failed operation: counted in `failed`, logged, not a wrong answer.
  void note_failure(const std::string& message) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (failure_notes_.size() < 5) {
      failure_notes_.push_back(message);
    }
  }
  const std::vector<std::string>& failure_notes() const {
    return failure_notes_;
  }
  bool correct() const { return check_failures_ == 0; }
  const std::vector<std::string>& messages() const { return messages_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::mutex mutex_;
  std::vector<std::string> messages_;
  std::vector<std::string> failure_notes_;
  std::uint64_t check_failures_ = 0;
};

/// Adds every per-layer metric, in a fixed order, taking values from
/// `values`; a layer the workload never calls reads 0.
void add_layer_metrics(Outcome& outcome,
                       const std::map<std::string, double>& values);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

void run_cycle_sweep(const Options& options, Outcome& outcome);
void run_service(const Options& options, Outcome& outcome);

}  // namespace perfbench
