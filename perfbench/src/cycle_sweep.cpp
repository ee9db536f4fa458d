// The cycle-sweep workload: the paper's knowledge cycle, phases 1-5, over a
// seeded JUBE sweep that mixes IOR, mdtest, HACC-IO and IO500 commands.
//
// Every round starts from the same seeded knowledge base and does the same
// work: generation on the simulated cluster (jube -> generators -> iostack
// -> fs -> sim), extraction of every output file, persistence into a
// file-backed database, analysis (explorer views, IO500 bounding boxes,
// anomaly detection) and usage (prediction, recommendation, configuration
// generation). Phase 4 and 5 calls are the reads a user of the knowledge
// base waits on.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"
#include "trace.hpp"

#include "src/analysis/anomaly.hpp"
#include "src/analysis/bounding_box.hpp"
#include "src/analysis/explorer.hpp"
#include "src/cycle/cycle.hpp"
#include "src/extract/extractor.hpp"
#include "src/generators/ior.hpp"
#include "src/persist/repository.hpp"
#include "src/usage/config_generator.hpp"
#include "src/usage/prediction.hpp"
#include "src/usage/recommendation.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

using namespace iokc;

/// Knowledge objects already in the base before the sweep runs.
constexpr std::size_t kBaseObjects = 300;
/// Set-up is short here, so more repetitions keep its median steady.
constexpr int kSetups = 5;

std::uint64_t pick(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t choices) {
  return util::splitmix64(seed, stream) % choices;
}

/// The sweep: two repetitions of 32 IOR, 4 mdtest, 2 HACC-IO and 2 IO500
/// work packages, 80 in all. The multiset of configurations is fixed, so
/// every seed asks the simulator for the same volume of work; the seed
/// picks the work-package order, the output paths, the simulator's noise
/// seed and the base corpus.
std::vector<std::string> sweep_commands(std::uint64_t seed) {
  std::vector<std::string> commands;
  int k = 0;
  for (int repetition = 0; repetition < 2; ++repetition) {
    const std::string dir = "/scratch/sweep" + std::to_string(seed % 100000) +
                            "_" + std::to_string(repetition);
    for (const char* transfer : {"256k", "1m"}) {
      for (const int tasks : {16, 32}) {
        for (const bool fpp : {false, true}) {
          for (const char* api : {"POSIX", "MPIIO"}) {
            for (const char* block : {"8m -s 8", "2m -s 32"}) {
              commands.push_back(std::string("ior -a ") + api + " -b " +
                                 block + " -t " + transfer +
                                 (fpp ? " -F" : "") + " -C -e -i 2 -N " +
                                 std::to_string(tasks) + " -o " + dir +
                                 "/ior" + std::to_string(k++));
            }
          }
        }
      }
    }
    for (int m = 0; m < 4; ++m) {
      const bool wide = m % 2 == 1;
      commands.push_back(std::string("mdtest -n ") + (wide ? "100" : "200") +
                         " -i 2 -N " + (wide ? "16" : "8") + " -d " + dir +
                         "/md" + std::to_string(m));
    }
    for (int h = 0; h < 2; ++h) {
      const bool wide = h == 1;
      commands.push_back(std::string("hacc_io -p ") +
                         (wide ? "100000" : "200000") +
                         " -a POSIX -m file-per-process -N " +
                         (wide ? "16" : "8") + " -o " + dir + "/hacc" +
                         std::to_string(h));
    }
    for (int i = 0; i < 2; ++i) {
      commands.push_back("io500 -N 8 -o " + dir + "/io500_" +
                         std::to_string(i) +
                         " --easy-bytes 32m --hard-bytes 2m --easy-files 100 "
                         "--hard-files 50");
    }
  }
  // Seeded Fisher-Yates: the work-package order differs per seed.
  for (std::size_t i = commands.size() - 1; i > 0; --i) {
    std::swap(commands[i], commands[pick(seed, 500 + i, i + 1)]);
  }
  return commands;
}

jube::JubeBenchmarkConfig sweep_config(std::uint64_t seed) {
  jube::JubeBenchmarkConfig config;
  config.name = "sweep";
  config.outpath = "sweep";
  config.space.add(jube::Parameter{"command", sweep_commands(seed)});
  config.steps.push_back(jube::JubeStep{"run", "$command"});
  return config;
}

/// Sample mean/min/max/stddev, computed here rather than by the program.
struct Moments {
  double mean = 0.0, min = 0.0, max = 0.0, stddev = 0.0;
};

Moments moments(const std::vector<double>& values) {
  Moments m;
  if (values.empty()) {
    return m;
  }
  m.min = *std::min_element(values.begin(), values.end());
  m.max = *std::max_element(values.begin(), values.end());
  for (const double v : values) {
    m.mean += v;
  }
  m.mean /= static_cast<double>(values.size());
  if (values.size() > 1) {
    double ss = 0.0;
    for (const double v : values) {
      ss += (v - m.mean) * (v - m.mean);
    }
    m.stddev = std::sqrt(ss / static_cast<double>(values.size() - 1));
  }
  return m;
}

/// Reported figures are printed with two decimals and parsed back, so a
/// recomputed figure may differ by a few hundredths.
bool close(double reported, double recomputed) {
  return std::abs(reported - recomputed) <= 0.02 + 1e-3 * std::abs(recomputed);
}

struct RoundResult {
  double seconds = 0.0;
  std::size_t packages = 0;
  std::vector<double> reads_us;
  std::vector<double> gets_us;  // one knowledge object loaded by id
  double extract_bytes = 0.0;
  std::size_t extract_files = 0;
  std::size_t objects = 0;
  double db_bytes = 0.0;
};

void check_round(Outcome& outcome, std::size_t packages,
                 const std::vector<persist::SourceBatch>& batches,
                 const persist::StoreOutcome& stored,
                 persist::KnowledgeRepository& repo) {
  const std::size_t objects =
      stored.knowledge_ids.size() + stored.io500_ids.size();
  if (objects != packages) {
    outcome.fail_check("stored " + std::to_string(objects) +
                       " objects for " + std::to_string(packages) +
                       " work packages");
  }
  std::size_t k = 0;
  std::size_t io = 0;
  for (const persist::SourceBatch& batch : batches) {
    for (const knowledge::Knowledge& extracted : batch.knowledge) {
      if (k >= stored.knowledge_ids.size()) {
        outcome.fail_check("fewer knowledge ids than extracted objects");
        return;
      }
      if (!(repo.load_knowledge(stored.knowledge_ids[k++]) == extracted)) {
        outcome.fail_check("loaded object differs from extraction: " +
                           extracted.command);
      }
      for (const knowledge::OpSummary& summary : extracted.summaries) {
        if (summary.results.empty()) {
          continue;
        }
        std::vector<double> bws;
        std::vector<double> ops;
        for (const knowledge::OpResult& result : summary.results) {
          bws.push_back(result.bw_mib);
          ops.push_back(result.iops);
        }
        const Moments bw = moments(bws);
        const Moments op = moments(ops);
        const bool bw_ok =
            close(summary.mean_bw_mib, bw.mean) &&
            close(summary.min_bw_mib, bw.min) &&
            close(summary.max_bw_mib, bw.max) &&
            close(summary.stddev_bw_mib, bw.stddev);
        const bool ops_ok =
            close(summary.mean_ops, op.mean) &&
            close(summary.min_ops, op.min) && close(summary.max_ops, op.max) &&
            close(summary.stddev_ops, op.stddev);
        if (!bw_ok || !ops_ok) {
          outcome.fail_check("summary of " + summary.operation + " in '" +
                             extracted.command +
                             "' does not match its iterations");
        }
      }
    }
    for (const knowledge::Io500Knowledge& extracted : batch.io500) {
      if (io >= stored.io500_ids.size()) {
        outcome.fail_check("fewer io500 ids than extracted runs");
        return;
      }
      const knowledge::Io500Knowledge loaded =
          repo.load_io500(stored.io500_ids[io++]);
      if (!(loaded == extracted)) {
        outcome.fail_check("loaded IO500 run differs from extraction");
      }
      std::vector<double> bw;
      std::vector<double> md;
      for (const knowledge::Io500Testcase& testcase : loaded.testcases) {
        (testcase.unit == "GiB/s" ? bw : md).push_back(testcase.value);
      }
      const double score_bw = geometric_mean(bw);
      const double score_md = geometric_mean(md);
      const auto near = [](double a, double b) {
        return std::abs(a - b) <= 1e-3 * std::abs(b) + 1e-3;
      };
      if (bw.size() != 4 || !near(loaded.score_bw_gib, score_bw) ||
          !near(loaded.score_md_kiops, score_md) ||
          !near(loaded.score_total, std::sqrt(score_bw * score_md))) {
        outcome.fail_check("IO500 scores are not the geometric means of " +
                           std::string("the stored test cases"));
      }
    }
  }
}

/// Times one call as a phase 4/5 read and wraps it in a span.
template <typename Call>
void timed_read(std::vector<double>& reads, const char* span_name,
                Call&& call) {
  const Span span(span_name);
  const auto started = Clock::now();
  call();
  reads.push_back(elapsed_us(started));
}

RoundResult run_round(const Options& options, int round,
                      const std::filesystem::path& base_db,
                      const jube::JubeBenchmarkConfig& config,
                      Outcome& outcome) {
  RoundResult result;
  const std::filesystem::path dir =
      options.work_dir / ("round" + std::to_string(round));
  std::filesystem::create_directories(dir);
  const std::filesystem::path db = dir / "kb.db";
  const Span round_span("cycle.round");
  const auto started = Clock::now();
  std::filesystem::copy_file(base_db, db);
  cycle::SimEnvironmentConfig sim;
  sim.seed = util::splitmix64(options.seed, 0xC1C1E);
  cycle::SimEnvironment env(sim);
  cycle::KnowledgeCycle cycle(
      env, dir / "workspace",
      persist::RepoTarget::parse("file:" + db.string()));
  // One isolated simulated environment per work package, on every core:
  // the round then averages over the cores' speeds, which on a shared
  // machine drift independently by tens of percent.
  cycle.set_parallelism(0);
  persist::KnowledgeRepository& repo = cycle.repository();

  // Phase 1: generation.
  jube::JubeRunResult run;
  {
    const Span span("jube.run");
    run = cycle.generate(config);
  }
  result.packages = run.packages.size();

  // Phase 2: extraction of every output file the sweep left.
  extract::KnowledgeExtractor extractor;
  std::vector<persist::SourceBatch> batches;
  {
    const Span phase("extract.phase");
    for (const std::filesystem::path& output :
         jube::JubeRunner::discover_outputs(cycle.workspace())) {
      persist::SourceBatch batch;
      batch.source =
          output.lexically_relative(cycle.workspace()).generic_string();
      const Span span("extract.file");
      extract::ExtractionResult extracted = extractor.extract_file(output);
      result.extract_bytes += static_cast<double>(
          std::filesystem::file_size(output));
      ++result.extract_files;
      batch.knowledge = std::move(extracted.knowledge);
      batch.io500 = std::move(extracted.io500);
      batches.push_back(std::move(batch));
    }
  }

  // Phase 3: persistence.
  persist::StoreOutcome stored;
  {
    const Span span("persist.store_sources");
    stored = repo.store_sources(batches);
    repo.save();
  }
  result.objects = stored.knowledge_ids.size() + stored.io500_ids.size();

  // Phase 4: analysis.
  {
    const Span phase("analysis.phase");
    analysis::KnowledgeExplorer& explorer = cycle.explorer();
    for (const std::int64_t id : stored.knowledge_ids) {
      timed_read(result.reads_us, "analysis.knowledge_view",
                 [&] { explorer.render_knowledge_view(id); });
      timed_read(result.reads_us, "analysis.anomaly", [&] {
        knowledge::Knowledge loaded;
        {
          const Span span("persist.load_knowledge");
          const auto get_started = Clock::now();
          loaded = repo.load_knowledge(id);
          result.gets_us.push_back(elapsed_us(get_started));
        }
        const Span span("analysis.detect_in_knowledge");
        analysis::with_job_context(analysis::detect_in_knowledge(loaded),
                                   loaded);
      });
    }
    timed_read(result.reads_us, "analysis.overview", [&] {
      explorer.overview_boxplot(stored.knowledge_ids, "write");
    });
    for (const std::int64_t id : stored.io500_ids) {
      timed_read(result.reads_us, "analysis.io500_view",
                 [&] { explorer.render_io500_view(id); });
      timed_read(result.reads_us, "analysis.bounding_box", [&] {
        analysis::make_bounding_box(repo.load_io500(id));
      });
    }
  }

  // Phase 5: usage.
  {
    const Span phase("usage.phase");
    for (int q = 0; q < 4; ++q) {
      const IorShape shape = draw_shape(options.seed, 900 + q);
      const std::string command = shape.command("/scratch/sweep/query");
      timed_read(result.reads_us, "usage.predict", [&] {
        std::vector<usage::TrainingSample> samples;
        {
          const Span span("usage.build_training_set");
          samples = usage::build_training_set(repo, "write");
        }
        const usage::ConfigFeatures query =
            usage::ConfigFeatures::from_command(command);
        {
          const Span span("usage.fit");
          usage::BandwidthPredictor::fit(samples).predict(query);
        }
        const Span span("usage.knn_predict");
        usage::knn_predict(samples, query);
      });
      timed_read(result.reads_us, "usage.recommend", [&] {
        usage::recommend(repo, gen::parse_ior_command(command), "write");
      });
    }
    const std::vector<std::pair<std::int64_t, std::string>> commands =
        repo.list_commands();
    for (const auto& [id, stored_command] : commands) {
      if (stored_command.rfind("ior ", 0) != 0 ||
          id < stored.knowledge_ids.front()) {
        continue;
      }
      timed_read(result.reads_us, "usage.create_configuration", [&] {
        usage::IorOverrides overrides;
        overrides.transfer_size = 2ull << 20;
        usage::generate_jube_config(
            "next", usage::create_configuration(stored_command, overrides),
            {{"-N", usage::SweepDimension{"tasks", {"16", "32", "64"}}}});
      });
    }
  }
  result.seconds = elapsed_us(started) / 1e6;

  check_round(outcome, result.packages, batches, stored, repo);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind("kb.db", 0) == 0) {
      result.db_bytes += static_cast<double>(entry.file_size());
    }
  }
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace

void run_cycle_sweep(const Options& options, Outcome& outcome) {
  const jube::JubeBenchmarkConfig config = sweep_config(options.seed);

  // Set-up: the knowledge base the sweep adds to, a seeded corpus stored
  // into a file-backed database and checkpointed. Done several times;
  // setup_s is the median.
  const Corpus base = make_corpus(options.seed, kBaseObjects, 8);
  std::vector<double> setup_times;
  std::filesystem::path base_db;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    base_db = options.work_dir / ("base" + std::to_string(attempt) + ".db");
    const auto started = Clock::now();
    {
      persist::KnowledgeRepository repo(
          persist::RepoTarget::parse("file:" + base_db.string()));
      repo.store_batch(base.knowledge);
      repo.store_batch(base.io500);
      repo.save();
    }
    setup_times.push_back(elapsed_us(started) / 1e6);
  }

  // A traced run spends half its time traced and half untraced; the ratio
  // of their mean round times is the tracing overhead.
  const double budget_s = options.trace ? options.seconds / 2 : options.seconds;
  Tracer::set_enabled(options.trace);
  std::vector<RoundResult> rounds;
  const auto started = Clock::now();
  do {
    rounds.push_back(run_round(options, static_cast<int>(rounds.size()),
                               base_db, config, outcome));
    outcome.attempted += rounds.back().packages;
  } while (elapsed_us(started) < budget_s * 1e6);
  Tracer::set_enabled(false);

  double cycle_seconds = 0.0;
  std::vector<double> reads;
  std::vector<double> gets;
  for (const RoundResult& round : rounds) {
    cycle_seconds += round.seconds;
    reads.insert(reads.end(), round.reads_us.begin(), round.reads_us.end());
    gets.insert(gets.end(), round.gets_us.begin(), round.gets_us.end());
  }
  const double packages = static_cast<double>(rounds.front().packages);
  if (!options.trace) {
    outcome.add_metric("setup_s", median(setup_times), "s");
    outcome.add_metric("peak_rss_mib", peak_rss_mib(), "MiB");
    outcome.add_metric(
        "ops_per_s",
        packages * static_cast<double>(rounds.size()) / cycle_seconds, "1/s");
    outcome.add_metric("read_p99_us", chunked_quantile(reads, 0.99), "us");
    return;
  }

  const auto spans = Tracer::durations_by_name();
  const auto per_round_s = [&](const std::string& name) {
    const auto found = spans.find(name);
    if (found == spans.end()) {
      return 0.0;
    }
    double total = 0.0;
    for (const double us : found->second) {
      total += us;
    }
    return total / 1e6 / static_cast<double>(rounds.size());
  };
  const auto p50 = [&](const std::string& name) {
    const auto found = spans.find(name);
    return found == spans.end() ? 0.0 : median(found->second);
  };
  const RoundResult& first = rounds.front();
  std::map<std::string, double> layer;
  layer["jube.run_s"] = per_round_s("jube.run");
  layer["jube.work_packages"] = packages;
  layer["extract.s"] = per_round_s("extract.phase");
  layer["extract.files"] = static_cast<double>(first.extract_files);
  layer["extract.bytes"] = first.extract_bytes;
  layer["persist.store_s"] = per_round_s("persist.store_sources");
  layer["persist.objects"] = static_cast<double>(first.objects);
  layer["db.file_bytes_per_object"] =
      first.db_bytes / static_cast<double>(kBaseObjects + 8 + first.objects);
  layer["analysis.s"] = per_round_s("analysis.phase");
  layer["usage.s"] = per_round_s("usage.phase");
  layer["persist.load_us"] = p50("persist.load_knowledge");
  layer["client.get_p50_us"] = chunked_quantile(gets, 0.50);
  layer["usage.training_set_us"] = p50("usage.build_training_set");
  layer["usage.fit_us"] = p50("usage.fit");
  layer["usage.knn_us"] = p50("usage.knn_predict");
  layer["usage.recommend_us"] = p50("usage.recommend");
  layer["analysis.anomaly_us"] = p50("analysis.detect_in_knowledge");
  double untraced_seconds = 0.0;
  std::size_t untraced_rounds = 0;
  const auto untraced_started = Clock::now();
  do {
    untraced_seconds +=
        run_round(options, static_cast<int>(rounds.size() + untraced_rounds),
                  base_db, config, outcome)
            .seconds;
    ++untraced_rounds;
    outcome.attempted += rounds.front().packages;
  } while (elapsed_us(untraced_started) < budget_s * 1e6);
  layer["tracing.overhead_pct"] =
      (cycle_seconds / static_cast<double>(rounds.size()) /
           (untraced_seconds / static_cast<double>(untraced_rounds)) -
       1.0) *
      100.0;
  add_layer_metrics(outcome, layer);
}

}  // namespace perfbench
