// iokc-perfbench: runs one benchmark workload against the iokc libraries,
// checks its outputs, and prints one JSON result line.
//
//   iokc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>] [--git-sha <sha>]
//
// Workloads: cycle-sweep, svc-point, svc-mixed, cluster-mixed (README.md).
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the line before it records the build and machine. A wrong answer prints
// the result with "correct": false and exits 1; a usage or setup error
// exits 2 without a result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

double peak_rss_mib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric; README.md says which end-to-end metric each
/// should move, on which workload.
constexpr LayerMetric kLayerMetrics[] = {
    {"jube.run_s", "s"},
    {"jube.work_packages", "count"},
    {"extract.s", "s"},
    {"extract.files", "count"},
    {"extract.bytes", "bytes"},
    {"persist.store_s", "s"},
    {"persist.objects", "count"},
    {"db.file_bytes_per_object", "bytes"},
    {"analysis.s", "s"},
    {"usage.s", "s"},
    {"endpoint.health.p50_us", "us"},
    {"endpoint.stats.p50_us", "us"},
    {"endpoint.list.p50_us", "us"},
    {"endpoint.sql.p50_us", "us"},
    {"endpoint.knowledge_get.p50_us", "us"},
    {"endpoint.knowledge_store.p50_us", "us"},
    {"endpoint.predict.p50_us", "us"},
    {"endpoint.recommend.p50_us", "us"},
    {"endpoint.anomaly.p50_us", "us"},
    {"svc.dispatch_us", "us"},
    {"svc.transport_us", "us"},
    {"svc.bytes_in", "bytes"},
    {"svc.bytes_out", "bytes"},
    {"json.parse_us", "us"},
    {"json.dump_us", "us"},
    {"db.exec_us", "us"},
    {"db.sql_cache_hits", "count"},
    {"db.sql_cache_misses", "count"},
    {"snapshot.acquire_cached_us", "us"},
    {"snapshot.acquire_after_write_us", "us"},
    {"snapshot.full_rebuilds", "count"},
    {"snapshot.delta_applies", "count"},
    {"persist.load_us", "us"},
    {"persist.list_us", "us"},
    {"persist.store_us", "us"},
    {"usage.training_set_us", "us"},
    {"usage.fit_us", "us"},
    {"usage.knn_us", "us"},
    {"usage.recommend_us", "us"},
    {"analysis.anomaly_us", "us"},
    {"repl.catchup_ms", "ms"},
    {"repl.shipped_batches", "count"},
    {"repl.read_share_min", "ratio"},
    {"client.get_p50_us", "us"},
    {"client.write_p50_us", "us"},
    {"client.write_p99_us", "us"},
    {"client.fresh_read_p50_us", "us"},
    {"tracing.overhead_pct", "%"},
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric value is not finite");
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument(flag + " expects a whole number");
  }
  return value;
}

int run(int argc, char** argv) {
  Options options;
  options.work_dir = ".bench_build/work";
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = parse_u64(flag, value) != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  options.work_dir /= options.workload + "-" + std::to_string(::getpid());
  const std::filesystem::path trace_path =
      options.work_dir.parent_path() /
      ("trace-" + options.workload + "-" + std::to_string(options.seed) +
       ".json");
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  Outcome outcome;
  try {
    if (options.workload == "cycle-sweep") {
      options.clients = 1;
      run_cycle_sweep(options, outcome);
    } else if (options.workload == "svc-point" ||
               options.workload == "svc-mixed" ||
               options.workload == "cluster-mixed") {
      // Two clients where the cores allow. cluster-mixed runs one: a
      // cluster client holds a connection per node, and no more
      // connections than cores are opened.
      options.clients = options.workload != "cluster-mixed"
                            ? std::max<std::size_t>(1, std::min(2u, nproc / 2))
                            : 1;
      run_service(options, outcome);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "' (cycle-sweep, svc-point, svc-mixed, "
                                  "cluster-mixed)");
    }
  } catch (...) {
    std::filesystem::remove_all(options.work_dir);
    throw;
  }
  std::filesystem::remove_all(options.work_dir);
  if (options.trace) {
    Tracer::write_chrome_trace(trace_path);
    std::cerr << "perfbench: trace written to " << trace_path.string()
              << "\n";
  }

  for (const std::string& message : outcome.failure_notes()) {
    std::cerr << "perfbench: failed operation: " << message << "\n";
  }
  for (const std::string& message : outcome.messages()) {
    std::cerr << "perfbench: WRONG: " << message << "\n";
  }
  std::cout << "perfbench-meta: {\"git_sha\": " << json_string(git_sha)
            << ", \"nproc\": " << nproc
            << ", \"cpu_model\": " << json_string(cpu_model())
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"clients\": " << options.clients << "}\n";
  std::string metrics;
  for (const Metric& metric : outcome.metrics()) {
    metrics += metrics.empty() ? "" : ", ";
    metrics += json_string(metric.name) + ": {\"value\": " +
               json_number(metric.value) +
               ", \"unit\": " + json_string(metric.unit) + "}";
  }
  std::cout << "{\"correct\": " << (outcome.correct() ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return outcome.correct() && outcome.attempted > 0 ? 0 : 1;
}

}  // namespace

void add_layer_metrics(Outcome& outcome,
                       const std::map<std::string, double>& values) {
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto found = values.find(metric.name);
    outcome.add_metric(metric.name,
                       found == values.end() ? 0.0 : found->second,
                       metric.unit);
  }
  for (const auto& [name, value] : values) {
    const bool listed = std::any_of(
        std::begin(kLayerMetrics), std::end(kLayerMetrics),
        [&](const LayerMetric& metric) { return name == metric.name; });
    if (!listed) {
      throw std::logic_error("per-layer metric " + name + " is not listed");
    }
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "iokc-perfbench: " << error.what() << "\n";
    return 2;
  }
}
