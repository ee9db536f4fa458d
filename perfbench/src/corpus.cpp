#include "corpus.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/rng.hpp"

namespace perfbench {

namespace {

constexpr const char* kApiNames[] = {"POSIX", "MPIIO", "HDF5"};
constexpr int kTaskChoices[] = {8, 16, 32, 64};

std::string size_token(int log2_bytes) {
  if (log2_bytes >= 20) {
    return std::to_string(1ull << (log2_bytes - 20)) + "m";
  }
  return std::to_string(1ull << (log2_bytes - 10)) + "k";
}

/// A uniform double in [0, 1) from (seed, stream, draw).
double unit(std::uint64_t seed, std::uint64_t stream, std::uint64_t draw) {
  const std::uint64_t bits =
      iokc::util::splitmix64(iokc::util::splitmix64(seed, stream), draw);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::uint64_t pick(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t draw, std::uint64_t choices) {
  return iokc::util::splitmix64(iokc::util::splitmix64(seed, stream), draw) %
         choices;
}

/// Three iterations spread symmetrically around `mean`, summarized the way
/// IOR reports them, with the mean pinned to exactly `mean`.
iokc::knowledge::OpSummary make_summary(const std::string& operation,
                                        const std::string& api, double mean,
                                        double spread, double bytes_per_op) {
  iokc::knowledge::OpSummary summary;
  summary.operation = operation;
  summary.api = api;
  const double factors[] = {1.0 - spread, 1.0, 1.0 + spread};
  for (int i = 0; i < 3; ++i) {
    iokc::knowledge::OpResult result;
    result.iteration = i;
    result.bw_mib = mean * factors[i];
    result.iops = result.bw_mib * 1048576.0 / bytes_per_op;
    result.total_sec = 1024.0 / result.bw_mib;
    result.open_sec = 0.001 * (i + 1);
    result.wrrd_sec = result.total_sec * 0.95;
    result.close_sec = 0.0005 * (i + 1);
    result.latency_sec = result.total_sec / 1000.0;
    summary.results.push_back(result);
  }
  summary.recompute();
  summary.mean_bw_mib = mean;
  return summary;
}

void add_context(iokc::knowledge::Knowledge& object, std::uint64_t index) {
  iokc::knowledge::FileSystemInfo fs;
  fs.fs_name = "beegfs-sim";
  fs.entry_type = "file";
  fs.entry_id = "0-" + std::to_string(index) + "-1";
  fs.metadata_node = static_cast<std::uint32_t>(index % 4);
  fs.stripe_pattern = "RAID0";
  fs.chunk_size = 512u << 10;
  fs.num_targets = 4;
  object.filesystem = fs;
  iokc::knowledge::JobInfoRecord job;
  job.job_id = 100000 + index;
  job.job_name = "kb-" + std::to_string(index);
  job.partition = "fuchs";
  job.user = "bench";
  job.num_nodes = object.num_nodes;
  job.num_tasks = object.num_tasks;
  job.node_list = "node[01-0" + std::to_string(object.num_nodes) + "]";
  job.submit_time = static_cast<double>(index) * 60.0;
  job.start_time = job.submit_time + 5.0;
  object.job = job;
  object.start_time = job.start_time;
  object.end_time = job.start_time + 42.0;
}

}  // namespace

std::string IorShape::command(const std::string& test_file) const {
  std::string cmd = "ior -a " + std::string(kApiNames[api]) + " -b " +
                    size_token(log2_block) + " -t " +
                    size_token(log2_transfer) + " -s " +
                    std::to_string(1 << log2_segments);
  if (file_per_process) {
    cmd += " -F";
  }
  return cmd + " -C -i 3 -N " + std::to_string(tasks) + " -o " + test_file;
}

double IorShape::model_write_mib() const {
  return 100.0 + 25.0 * log2_transfer + 10.0 * log2_block +
         15.0 * log2_segments + 4.0 * tasks +
         (file_per_process ? 120.0 : 0.0) - (api == 1 ? 40.0 : 0.0) -
         (api == 2 ? 80.0 : 0.0);
}

IorShape draw_shape(std::uint64_t seed, std::uint64_t stream) {
  IorShape shape;
  shape.log2_transfer = 16 + static_cast<int>(pick(seed, stream, 1, 6));
  shape.log2_block = 22 + static_cast<int>(pick(seed, stream, 2, 3));
  shape.log2_segments = static_cast<int>(pick(seed, stream, 3, 4));
  shape.tasks = kTaskChoices[pick(seed, stream, 4, 4)];
  shape.file_per_process = pick(seed, stream, 5, 2) == 1;
  shape.api = static_cast<int>(pick(seed, stream, 6, 3));
  return shape;
}

double model_min_mib() {
  IorShape low;  // every feature at its smallest contribution
  low.api = 2;
  return low.model_write_mib();
}

double model_max_mib() {
  IorShape high;
  high.log2_transfer = 21;
  high.log2_block = 24;
  high.log2_segments = 3;
  high.tasks = 64;
  high.file_per_process = true;
  return high.model_write_mib();
}

iokc::knowledge::Knowledge make_ior_knowledge(std::uint64_t seed,
                                              std::uint64_t index,
                                              const IorShape& shape) {
  iokc::knowledge::Knowledge object;
  object.benchmark = "IOR";
  object.test_file = "/scratch/kb/ior" + std::to_string(index);
  object.command = shape.command(object.test_file);
  object.api = kApiNames[shape.api];
  object.file_per_process = shape.file_per_process;
  object.num_tasks = static_cast<std::uint32_t>(shape.tasks);
  object.num_nodes = static_cast<std::uint32_t>(1 + shape.tasks / 16);
  const double spread = 0.01 + 0.04 * unit(seed, index, 7);
  const double write = shape.model_write_mib();
  const double transfer = std::ldexp(1.0, shape.log2_transfer);
  object.summaries.push_back(
      make_summary("write", object.api, write, spread, transfer));
  object.summaries.push_back(make_summary(
      "read", object.api, write * (1.1 + 0.3 * unit(seed, index, 8)), spread,
      transfer));
  add_context(object, index);
  return object;
}

namespace {

iokc::knowledge::Knowledge make_knowledge(std::uint64_t seed,
                                          std::uint64_t index) {
  // A fixed share per family (8 in 10 IOR), so corpora of every seed hold
  // the same number of objects of each kind.
  const std::uint64_t family = index % 10;
  if (family < 8) {
    return make_ior_knowledge(seed, index, draw_shape(seed, index));
  }
  iokc::knowledge::Knowledge object;
  const int tasks = kTaskChoices[pick(seed, index, 4, 4)];
  object.num_tasks = static_cast<std::uint32_t>(tasks);
  object.num_nodes = static_cast<std::uint32_t>(1 + tasks / 16);
  if (family == 8) {
    const int files = 50 * (1 + static_cast<int>(pick(seed, index, 2, 8)));
    object.benchmark = "mdtest";
    object.api = "POSIX";
    object.test_file = "/scratch/kb/md" + std::to_string(index);
    object.command = "mdtest -n " + std::to_string(files) + " -i 3 -N " +
                     std::to_string(tasks) + " -d " + object.test_file;
    const double rate = 2000.0 + 8000.0 * unit(seed, index, 9);
    for (const char* op : {"create", "stat", "remove"}) {
      iokc::knowledge::OpSummary summary =
          make_summary(op, "POSIX", rate, 0.03, 4096.0);
      summary.mean_bw_mib = 0.0;
      summary.max_bw_mib = 0.0;
      summary.min_bw_mib = 0.0;
      summary.stddev_bw_mib = 0.0;
      for (auto& result : summary.results) {
        result.bw_mib = 0.0;
      }
      object.summaries.push_back(summary);
    }
  } else {
    const int particles =
        100000 * (1 + static_cast<int>(pick(seed, index, 2, 8)));
    object.benchmark = "HACC-IO";
    object.api = "POSIX";
    object.test_file = "/scratch/kb/hacc" + std::to_string(index);
    object.command = "hacc_io -p " + std::to_string(particles) +
                     " -a POSIX -m file-per-process -N " +
                     std::to_string(tasks) + " -o " + object.test_file;
    object.file_per_process = true;
    const double write = 600.0 + 900.0 * unit(seed, index, 9);
    object.summaries.push_back(
        make_summary("write", "POSIX", write, 0.02, 38.0 * particles));
    object.summaries.push_back(
        make_summary("read", "POSIX", write * 1.3, 0.02, 38.0 * particles));
  }
  add_context(object, index);
  return object;
}

iokc::knowledge::Io500Knowledge make_io500(std::uint64_t seed,
                                           std::uint64_t index) {
  iokc::knowledge::Io500Knowledge run;
  const int tasks = kTaskChoices[pick(seed, 1000000 + index, 4, 4)];
  run.num_tasks = static_cast<std::uint32_t>(tasks);
  run.num_nodes = static_cast<std::uint32_t>(1 + tasks / 16);
  run.command = "io500 -N " + std::to_string(tasks) + " -o /scratch/kb/io500_" +
                std::to_string(index);
  struct Case {
    const char* name;
    const char* unit;
    double base;
  };
  const Case cases[] = {
      {"ior-easy-write", "GiB/s", 4.0},
      {"mdtest-easy-write", "kIOPS", 30.0},
      {"ior-hard-write", "GiB/s", 0.4},
      {"mdtest-hard-write", "kIOPS", 8.0},
      {"find", "kIOPS", 300.0},
      {"ior-easy-read", "GiB/s", 5.0},
      {"mdtest-easy-stat", "kIOPS", 90.0},
      {"ior-hard-read", "GiB/s", 0.9},
      {"mdtest-hard-stat", "kIOPS", 60.0},
      {"mdtest-easy-delete", "kIOPS", 25.0},
      {"mdtest-hard-read", "kIOPS", 20.0},
      {"mdtest-hard-delete", "kIOPS", 9.0},
  };
  std::vector<double> bw;
  std::vector<double> md;
  std::uint64_t draw = 10;
  for (const Case& entry : cases) {
    iokc::knowledge::Io500Testcase testcase;
    testcase.name = entry.name;
    testcase.unit = entry.unit;
    testcase.options = "-N " + std::to_string(tasks);
    testcase.value = entry.base * (0.5 + unit(seed, 1000000 + index, draw++));
    testcase.time_sec = 30.0 + 300.0 * unit(seed, 1000000 + index, draw++);
    (testcase.unit == "GiB/s" ? bw : md).push_back(testcase.value);
    run.testcases.push_back(testcase);
  }
  run.score_bw_gib = geometric_mean(bw);
  run.score_md_kiops = geometric_mean(md);
  run.score_total = std::sqrt(run.score_bw_gib * run.score_md_kiops);
  return run;
}

}  // namespace

Corpus make_corpus(std::uint64_t seed, std::size_t knowledge_objects,
                   std::size_t io500_objects) {
  Corpus corpus;
  corpus.knowledge.reserve(knowledge_objects);
  for (std::size_t i = 0; i < knowledge_objects; ++i) {
    corpus.knowledge.push_back(make_knowledge(seed, i));
  }
  for (std::size_t i = 0; i < io500_objects; ++i) {
    corpus.io500.push_back(make_io500(seed, i));
  }
  return corpus;
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double value : values) {
    log_sum += std::log(value);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
