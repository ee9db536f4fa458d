// The knowledge-service workloads: svc-point, svc-mixed and cluster-mixed.
//
// Each client thread is a closed loop: it sends its next request only after
// the previous answer arrived, and it runs whole rounds of a fixed request
// template until the run's time is up. Every answer is checked against the
// benchmark's own record of the corpus and of the writes it made.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"
#include "trace.hpp"

#include "src/analysis/anomaly.hpp"
#include "src/generators/ior.hpp"
#include "src/persist/repository.hpp"
#include "src/repl/cluster_client.hpp"
#include "src/repl/node.hpp"
#include "src/svc/client.hpp"
#include "src/svc/server.hpp"
#include "src/svc/snapshot.hpp"
#include "src/usage/prediction.hpp"
#include "src/usage/recommendation.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/json_writer.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

using namespace iokc;

constexpr std::size_t kCorpusObjects = 2000;
constexpr std::size_t kCorpusIo500 = 40;
constexpr std::size_t kServerThreads = 2;
constexpr std::size_t kReplicas = 2;
constexpr int kSetups = 3;
/// Objects written during a run get indexes far above the corpus's.
constexpr std::uint64_t kWrittenBase = 10'000'000;

enum class Kind { kPoint, kMixed, kCluster };

enum class Step {
  kHealth,
  kStats,
  kList,
  kGet,
  kSqlPoint,
  kSqlScan,
  kAnomaly,
  kPredict,
  kRecommend,
  kStore,
  kReadBack,
};

/// One client round. svc-point touches one object or one indexed row per
/// request and never writes. The mixed template is a dashboard: a tenth of
/// the requests write, each followed by the writer's read-back, and the
/// O(corpus) reads (stats, list, sql scan, predict, recommend) repeat every
/// round. Point reads of corpus objects are the most common request in
/// both.
const std::vector<Step>& round_template(Kind kind) {
  static const std::vector<Step> point = {
      Step::kHealth, Step::kGet,     Step::kSqlPoint, Step::kGet,
      Step::kGet,    Step::kAnomaly, Step::kGet,      Step::kSqlPoint,
      Step::kGet,    Step::kGet};
  static const std::vector<Step> mixed = [] {
    std::vector<Step> steps;
    const Step heavy[] = {Step::kStats, Step::kSqlScan, Step::kPredict,
                          Step::kList, Step::kRecommend};
    for (int quarter = 0; quarter < 4; ++quarter) {
      steps.insert(steps.end(), {Step::kStore, Step::kReadBack, Step::kGet,
                                 Step::kGet, Step::kGet, Step::kGet});
      steps.push_back(heavy[quarter]);
      steps.insert(steps.end(), {Step::kGet, Step::kGet});
      steps.push_back(quarter == 0   ? Step::kHealth
                      : quarter == 1 ? Step::kAnomaly
                      : quarter == 2 ? Step::kSqlPoint
                                     : heavy[4]);
    }
    return steps;
  }();
  return kind == Kind::kPoint ? point : mixed;
}

const char* endpoint_of(Step step) {
  switch (step) {
    case Step::kHealth:
      return "health";
    case Step::kStats:
      return "stats";
    case Step::kList:
      return "list";
    case Step::kGet:
    case Step::kReadBack:
      return "knowledge/get";
    case Step::kSqlPoint:
    case Step::kSqlScan:
      return "sql";
    case Step::kAnomaly:
      return "anomaly";
    case Step::kPredict:
      return "predict";
    case Step::kRecommend:
      return "recommend";
    case Step::kStore:
      return "knowledge/store";
  }
  return "health";
}

std::string metric_endpoint(const std::string& endpoint) {
  std::string name = endpoint;
  std::replace(name.begin(), name.end(), '/', '_');
  return name;
}

/// The corpus as stored, with the counts the oracles compare against.
struct CorpusRecord {
  Corpus corpus;
  std::vector<std::int64_t> knowledge_ids;  // parallel to corpus.knowledge
  std::vector<std::int64_t> io500_ids;
  std::int64_t ior_objects = 0;
  std::int64_t mdtest_objects = 0;
  std::vector<std::size_t> anomaly_counts;  // per knowledge object
};

/// Writes acknowledged so far, shared by every client.
struct WriteLedger {
  std::atomic<std::int64_t> started{0};
  std::atomic<std::int64_t> acked{0};
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, knowledge::Knowledge>> objects;
};

/// One set-up: repositories, the server or the replicated cluster.
struct Deployment {
  std::filesystem::path dir;
  std::unique_ptr<persist::KnowledgeRepository> repo;
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<repl::PrimaryNode> primary;
  std::vector<std::unique_ptr<persist::KnowledgeRepository>> replica_repos;
  std::vector<std::unique_ptr<repl::ReplicaNode>> replicas;
  std::vector<std::string> targets;

  svc::Server& front() { return primary ? primary->server() : *server; }
  void stop() {
    if (server) {
      server->stop();
    }
    for (auto& replica : replicas) {
      replica->stop();
    }
    if (primary) {
      primary->stop();
    }
  }
  ~Deployment() { stop(); }
};

svc::ClientOptions client_options() {
  svc::ClientOptions options;
  options.connect_retries = 9;
  options.request_timeout_ms = 30000;
  return options;
}

std::pair<std::string, std::uint16_t> split_target(const std::string& target) {
  const std::size_t colon = target.rfind(':');
  return {target.substr(0, colon),
          static_cast<std::uint16_t>(std::stoi(target.substr(colon + 1)))};
}

std::unique_ptr<Deployment> deploy(Kind kind, const Options& options,
                                   CorpusRecord& record, int attempt) {
  auto dep = std::make_unique<Deployment>();
  dep->dir = options.work_dir / ("setup" + std::to_string(attempt));
  std::filesystem::create_directories(dep->dir);
  dep->repo = kind == Kind::kPoint
                  ? std::make_unique<persist::KnowledgeRepository>()
                  : std::make_unique<persist::KnowledgeRepository>(
                        persist::RepoTarget::parse(
                            "file:" + (dep->dir / "primary.db").string()));
  record.knowledge_ids = dep->repo->store_batch(record.corpus.knowledge);
  record.io500_ids = dep->repo->store_batch(record.corpus.io500);

  svc::ServerConfig config;
  config.threads = kServerThreads;
  if (kind != Kind::kCluster) {
    dep->server = std::make_unique<svc::Server>(*dep->repo, config);
    dep->server->start();
    dep->targets.push_back("127.0.0.1:" +
                           std::to_string(dep->server->port()));
  } else {
    repl::ShipperConfig ship;
    ship.ack_policy = repl::AckPolicy::kQuorum;
    ship.expected_replicas = kReplicas;
    dep->primary =
        std::make_unique<repl::PrimaryNode>(*dep->repo, config, ship);
    dep->primary->start();
    dep->targets.push_back(
        "127.0.0.1:" + std::to_string(dep->primary->server().port()));
    for (std::size_t r = 0; r < kReplicas; ++r) {
      const std::string name = "replica" + std::to_string(r);
      dep->replica_repos.push_back(
          std::make_unique<persist::KnowledgeRepository>(
              persist::RepoTarget::parse(
                  "file:" + (dep->dir / (name + ".db")).string())));
      svc::ServerConfig replica_config = config;
      replica_config.primary_address = dep->targets[0];
      repl::ReplicaConfig replication;
      replication.primary_port = dep->primary->shipper().port();
      replication.reconnect_delay_ms = 50;
      replication.marker_path = (dep->dir / (name + ".synced")).string();
      dep->replicas.push_back(std::make_unique<repl::ReplicaNode>(
          *dep->replica_repos.back(), replica_config, replication));
      dep->replicas.back()->start();
      dep->targets.push_back(
          "127.0.0.1:" +
          std::to_string(dep->replicas.back()->server().port()));
    }
    const std::uint64_t seq = dep->repo->applied_seq();
    for (auto& replica : dep->replicas) {
      if (!replica->replication().wait_applied(seq, 60000)) {
        throw std::runtime_error("replica never caught up with the corpus");
      }
    }
  }
  // Build every node's first read snapshot, so the measured requests do
  // not pay that one-off cost.
  for (const std::string& target : dep->targets) {
    const auto [host, port] = split_target(target);
    svc::Client warm = svc::Client::connect(host, port, client_options());
    const svc::Response response = warm.call("stats");
    if (!response.ok) {
      throw std::runtime_error("warm-up stats failed: " + response.error);
    }
  }
  return dep;
}

/// A client's connection: one server, or every node of the cluster.
class Connection {
 public:
  explicit Connection(const std::vector<std::string>& targets) {
    if (targets.size() == 1) {
      const auto [host, port] = split_target(targets[0]);
      single_.emplace(svc::Client::connect(host, port, client_options()));
    } else {
      repl::ClusterClientOptions options;
      options.client = client_options();
      cluster_.emplace(targets, options);
    }
  }
  bool cluster() const { return cluster_.has_value(); }
  /// Writes and read-backs go to the primary; other reads are split
  /// across the nodes by the cluster client.
  svc::Response call(const std::string& endpoint, util::JsonValue params,
                     bool to_primary) {
    if (single_) {
      return single_->call(endpoint, std::move(params));
    }
    return to_primary ? cluster_->call_primary(endpoint, std::move(params))
                      : cluster_->call(endpoint, std::move(params));
  }
  std::vector<std::uint64_t> reads_per_target() const {
    return cluster_ ? cluster_->reads_per_target()
                    : std::vector<std::uint64_t>{};
  }

 private:
  std::optional<svc::Client> single_;
  std::optional<repl::ClusterClient> cluster_;
};

struct Sample {
  Step step;
  double us;
  double done_s;  // completion time, seconds into the window
};

struct ClientResult {
  std::vector<Sample> samples;
  std::vector<double> round_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> reads_per_target;
};

/// Everything one request needs that is drawn from the seed.
struct Planned {
  std::string endpoint;
  util::JsonValue params;
  std::size_t corpus_index = 0;          // kGet / kAnomaly / kSqlPoint
  std::optional<knowledge::Knowledge> object;  // kStore
  IorShape shape;                        // kPredict / kRecommend
};

class Workload {
 public:
  Workload(Kind kind, const Options& options, const CorpusRecord& record,
           WriteLedger& ledger, Outcome& outcome)
      : kind_(kind),
        options_(options),
        record_(record),
        ledger_(ledger),
        outcome_(outcome) {}

  Planned plan(Step step, std::size_t client, std::uint64_t round,
               std::size_t position) const {
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(client) << 40) ^ (round << 8) ^ position;
    const std::uint64_t draw = util::splitmix64(options_.seed, stream);
    Planned planned;
    planned.endpoint = endpoint_of(step);
    util::JsonObject params;
    planned.corpus_index = draw % record_.knowledge_ids.size();
    const std::int64_t id = record_.knowledge_ids[planned.corpus_index];
    switch (step) {
      case Step::kGet:
      case Step::kAnomaly:
        params.emplace_back("id", util::JsonValue(id));
        break;
      case Step::kSqlPoint:
        params.emplace_back(
            "statement",
            util::JsonValue("SELECT id, command, num_tasks FROM performances "
                            "WHERE id = " + std::to_string(id)));
        break;
      case Step::kSqlScan:
        // Odd rounds scan the summaries table instead of performances.
        params.emplace_back(
            "statement",
            util::JsonValue(round % 2 == 0
                                ? "SELECT id, command FROM performances"
                                : "SELECT performance_id, mean_ops FROM "
                                  "summaries WHERE operation = 'create'"));
        break;
      case Step::kPredict:
      case Step::kRecommend:
        planned.shape = draw_shape(options_.seed, kWrittenBase / 2 + stream);
        params.emplace_back("command", util::JsonValue(planned.shape.command(
                                           "/scratch/kb/query")));
        break;
      case Step::kStore: {
        const std::uint64_t index =
            kWrittenBase + static_cast<std::uint64_t>(client) * 1'000'000'000 +
            round * 64 + position;
        planned.object = make_ior_knowledge(options_.seed, index,
                                            draw_shape(options_.seed, index));
        params.emplace_back("object", planned.object->to_json());
        break;
      }
      default:
        break;
    }
    planned.params = util::JsonValue(std::move(params));
    return planned;
  }

  ClientResult run_client(std::size_t client, std::uint64_t first_round,
                          Clock::time_point deadline,
                          const std::vector<std::string>& targets) {
    ClientResult result;
    Connection connection(targets);
    const std::vector<Step>& steps = round_template(kind_);
    std::optional<std::pair<std::int64_t, knowledge::Knowledge>> written;
    const auto window_started = Clock::now();
    for (std::uint64_t round = first_round; Clock::now() < deadline; ++round) {
      const auto round_started = Clock::now();
      for (std::size_t position = 0; position < steps.size(); ++position) {
        const Step step = steps[position];
        ++result.attempted;
        if (step == Step::kReadBack && !written) {
          ++result.failed;  // the write it reads back failed
          continue;
        }
        Planned planned = plan(step, client, round, position);
        if (step == Step::kReadBack) {
          util::JsonObject params;
          params.emplace_back("id", util::JsonValue(written->first));
          planned.params = util::JsonValue(std::move(params));
        }
        const bool to_primary =
            step == Step::kStore || step == Step::kReadBack;
        // Reads must see every write acknowledged before they were sent,
        // unless a lagging replica may serve them.
        const std::int64_t floor =
            connection.cluster() && !to_primary
                ? 0
                : ledger_.acked.load(std::memory_order_acquire);
        if (step == Step::kStore) {
          ledger_.started.fetch_add(1, std::memory_order_acq_rel);
        }
        svc::Response response;
        const auto started = Clock::now();
        try {
          const Span span(std::string("client:") + planned.endpoint,
                          (static_cast<std::uint64_t>(client) << 48) |
                              (round * steps.size() + position));
          response = connection.call(planned.endpoint,
                                     std::move(planned.params), to_primary);
        } catch (const Error& error) {
          response = svc::Response::failure(error.what());
        }
        const double us = elapsed_us(started);
        const std::int64_t ceiling =
            ledger_.started.load(std::memory_order_acquire);
        if (!response.ok) {
          ++result.failed;
          outcome_.note_failure(std::string(planned.endpoint) + ": " +
                                response.error);
          if (step == Step::kStore) {
            written.reset();
          }
          continue;
        }
        result.samples.push_back(
            Sample{step, us, elapsed_us(window_started) / 1e6});
        check(step, planned, response.result, floor, ceiling, written);
      }
      result.round_s.push_back(elapsed_us(round_started) / 1e6);
    }
    result.reads_per_target = connection.reads_per_target();
    return result;
  }

 private:
  void expect(bool condition, const std::string& what) {
    if (!condition) {
      outcome_.fail_check(what);
    }
  }

  void expect_count(std::int64_t seen, std::int64_t base, std::int64_t floor,
                    std::int64_t ceiling, const std::string& what) {
    expect(seen >= base + floor && seen <= base + ceiling,
           what + ": saw " + std::to_string(seen) + ", expected " +
               std::to_string(base + floor) + ".." +
               std::to_string(base + ceiling));
  }

  void check(Step step, const Planned& planned, const util::JsonValue& result,
             std::int64_t floor, std::int64_t ceiling,
             std::optional<std::pair<std::int64_t, knowledge::Knowledge>>&
                 written) {
    const auto total = static_cast<std::int64_t>(record_.knowledge_ids.size());
    const auto io500 = static_cast<std::int64_t>(record_.io500_ids.size());
    try {
      switch (step) {
        case Step::kHealth:
          expect(result.at("status").as_string() == "ok", "health not ok");
          break;
        case Step::kStats:
          expect_count(result.at("knowledge_objects").as_int(), total, floor,
                       ceiling, "stats knowledge_objects");
          expect(result.at("io500_runs").as_int() == io500,
                 "stats io500_runs");
          break;
        case Step::kList:
          expect_count(static_cast<std::int64_t>(
                           result.at("knowledge").as_array().size()),
                       total, floor, ceiling, "list knowledge");
          expect(static_cast<std::int64_t>(
                     result.at("io500").as_array().size()) == io500,
                 "list io500");
          break;
        case Step::kGet:
          expect(knowledge::Knowledge::from_json(result.at("object")) ==
                     record_.corpus.knowledge[planned.corpus_index],
                 "knowledge/get differs from the stored corpus object " +
                     std::to_string(
                         record_.knowledge_ids[planned.corpus_index]));
          break;
        case Step::kReadBack:
          expect(knowledge::Knowledge::from_json(result.at("object")) ==
                     written->second,
                 "read-back differs from the object written as id " +
                     std::to_string(written->first));
          break;
        case Step::kSqlPoint: {
          const util::JsonArray& rows = result.at("rows").as_array();
          expect(rows.size() == 1 &&
                     rows[0].as_array().at(1).as_string() ==
                         record_.corpus.knowledge[planned.corpus_index].command,
                 "point sql row differs from the corpus");
          break;
        }
        case Step::kSqlScan: {
          const auto rows =
              static_cast<std::int64_t>(result.at("rows").as_array().size());
          if (result.at("columns").as_array().at(0).as_string() == "id") {
            expect_count(rows, total, floor, ceiling, "sql scan rows");
          } else {
            expect(rows == record_.mdtest_objects,
                   "sql scan of create summaries differs from the corpus's "
                   "mdtest count");
          }
          break;
        }
        case Step::kAnomaly:
          expect(result.at("anomalies").as_array().size() ==
                     record_.anomaly_counts[planned.corpus_index],
                 "anomaly count differs from the corpus object's");
          break;
        case Step::kPredict: {
          const double truth = planned.shape.model_write_mib();
          const double regression = result.at("regression_mib").as_double();
          const double knn = result.at("knn_mib").as_double();
          // The fit adds a 1e-8 ridge term scaled by the design's trace,
          // which shrinks the coefficients by ~1e-5 of their size.
          expect(std::abs(regression - truth) <= 1e-4 * truth,
                 "predict regression " + std::to_string(regression) +
                     " does not recover the linear corpus (" +
                     std::to_string(truth) + ")");
          expect(knn >= model_min_mib() && knn <= model_max_mib(),
                 "predict knn outside the training bandwidths");
          expect_count(result.at("samples").as_int(), record_.ior_objects,
                       floor, ceiling, "predict samples");
          break;
        }
        case Step::kRecommend: {
          const std::int64_t evidence = result.at("evidence_runs").as_int();
          expect(evidence >= 1 && evidence <= record_.ior_objects + ceiling,
                 "recommend evidence_runs out of range");
          break;
        }
        case Step::kStore: {
          const std::int64_t id = result.at("id").as_int();
          if (kind_ == Kind::kCluster &&
              result.at("replication").as_string() != "acked") {
            outcome_.fail_check("store of id " + std::to_string(id) +
                                " was not quorum-acked");
          }
          written.emplace(id, *planned.object);
          ledger_.acked.fetch_add(1, std::memory_order_acq_rel);
          const std::lock_guard<std::mutex> lock(ledger_.mutex);
          ledger_.objects.emplace_back(id, *planned.object);
          break;
        }
      }
    } catch (const Error& error) {
      outcome_.fail_check(std::string(endpoint_of(step)) +
                          ": malformed answer: " + error.what());
    }
  }

  Kind kind_;
  const Options& options_;
  const CorpusRecord& record_;
  WriteLedger& ledger_;
  Outcome& outcome_;
};

struct Window {
  std::vector<ClientResult> clients;
  /// Requests completed per second of each client's rounds, summed over
  /// the clients.
  double ops_per_s(std::size_t round_steps) const {
    double total = 0.0;
    for (const ClientResult& client : clients) {
      double seconds = 0.0;
      for (const double round : client.round_s) {
        seconds += round;
      }
      total += static_cast<double>(round_steps * client.round_s.size()) /
               seconds;
    }
    return total;
  }
};

/// Runs every client for `seconds`; each finishes the round it is in.
Window run_window(Workload& workload, std::size_t clients, double seconds,
                  std::uint64_t first_round,
                  const std::vector<std::string>& targets) {
  Window window;
  window.clients.resize(clients);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  std::vector<std::string> errors(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        window.clients[c] =
            workload.run_client(c, first_round, deadline, targets);
      } catch (const std::exception& error) {
        errors[c] = error.what();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const std::string& error : errors) {
    if (!error.empty()) {
      throw std::runtime_error("client failed: " + error);
    }
  }
  return window;
}

/// Latency quantile `q` of the samples `keep` selects, over the clients'
/// samples in completion order (see chunked_quantile).
double latency_quantile(const Window& window, bool (*keep)(Step), double q) {
  std::vector<std::pair<double, double>> timed;  // (done_s, us)
  for (const ClientResult& client : window.clients) {
    for (const Sample& sample : client.samples) {
      if (keep(sample.step)) {
        timed.emplace_back(sample.done_s, sample.us);
      }
    }
  }
  std::sort(timed.begin(), timed.end());
  std::vector<double> ordered;
  ordered.reserve(timed.size());
  for (const auto& [done_s, us] : timed) {
    ordered.push_back(us);
  }
  return chunked_quantile(ordered, q);
}

bool is_read(Step step) { return step != Step::kStore; }
bool is_get(Step step) { return step == Step::kGet; }
bool is_write(Step step) { return step == Step::kStore; }
bool is_fresh_read(Step step) { return step == Step::kReadBack; }

/// Median of the durations of spans named `name`; 0 when none ran.
double span_p50(const std::map<std::string, std::vector<double>>& spans,
                const std::string& name) {
  const auto found = spans.find(name);
  return found == spans.end() ? 0.0 : median(found->second);
}

/// Replays a stretch of the workload's request stream straight through the
/// layers' public functions, each call in its own span: request parse,
/// Server::dispatch, response encode, and the persist, db, snapshot, usage
/// and analysis calls the endpoints make. Runs after the live servers
/// stopped, against the primary repository they served.
void replay_layers(Kind kind, Workload& workload, Deployment& dep,
                   const CorpusRecord& record, const Options& options,
                   Outcome& outcome, std::map<std::string, double>& layer) {
  persist::KnowledgeRepository& repo = *dep.repo;
  svc::ServerConfig config;
  config.threads = 1;
  svc::Server server(repo, config);  // never started: dispatch only
  const std::vector<Step>& steps = round_template(kind);
  std::vector<double> bytes_in;
  std::vector<double> bytes_out;
  std::string payload;
  std::string encoded;
  std::optional<std::int64_t> written;
  const auto replay_started = Clock::now();
  for (std::uint64_t round = 0;
       round < 200 && elapsed_us(replay_started) < 1.5e6; ++round) {
    for (std::size_t position = 0; position < steps.size(); ++position) {
      const Step step = steps[position];
      if (step == Step::kReadBack && !written) {
        continue;
      }
      Planned planned = workload.plan(step, 0, (1ull << 30) + round, position);
      if (step == Step::kReadBack) {
        util::JsonObject params;
        params.emplace_back("id", util::JsonValue(*written));
        planned.params = util::JsonValue(std::move(params));
      }
      const svc::Request outbound{planned.endpoint, planned.params};
      payload.clear();
      {
        util::JsonWriter writer(payload);
        outbound.dump_to(writer);
      }
      bytes_in.push_back(static_cast<double>(payload.size() + 4));
      svc::Request request;
      {
        const Span span("json.parse");
        request = svc::Request::from_json(util::parse_json(payload));
      }
      svc::Response response;
      {
        const Span span("svc.dispatch");
        response = server.dispatch(request);
      }
      encoded.clear();
      {
        const Span span("json.dump");
        util::JsonWriter writer(encoded);
        response.dump_to(writer);
      }
      bytes_out.push_back(static_cast<double>(encoded.size() + 4));
      if (!response.ok) {
        outcome.fail_check("replayed " + planned.endpoint +
                           " failed: " + response.error);
        continue;
      }
      if (step == Step::kStore) {
        written = response.result.at("id").as_int();
      }
      if (planned.endpoint == "sql") {
        const std::string statement =
            request.params.at("statement").as_string();
        const Span span("db.execute");
        repo.database().execute(statement);
      }
    }
  }
  layer["svc.bytes_in"] = median(bytes_in);
  layer["svc.bytes_out"] = median(bytes_out);

  const bool writes = kind != Kind::kPoint;
  const std::uint64_t seed = options.seed;
  for (int i = 0; i < 20; ++i) {
    const std::size_t index =
        util::splitmix64(seed, 7000 + static_cast<std::uint64_t>(i)) %
        record.knowledge_ids.size();
    knowledge::Knowledge loaded;
    {
      const Span span("persist.load_knowledge");
      loaded = repo.load_knowledge(record.knowledge_ids[index]);
    }
    const Span span("analysis.detect_in_knowledge");
    analysis::with_job_context(analysis::detect_in_knowledge(loaded), loaded);
  }
  svc::SnapshotStore snapshots(repo);
  snapshots.snapshot();
  for (int i = 0; i < 50; ++i) {
    const Span span("snapshot.acquire_cached");
    snapshots.snapshot();
  }
  if (writes) {
    for (int i = 0; i < 5; ++i) {
      const Span span("persist.list_commands");
      repo.list_commands();
    }
    for (std::uint64_t i = 0; i < 10; ++i) {
      const std::uint64_t index = kWrittenBase - 1000 + i;
      const knowledge::Knowledge object =
          make_ior_knowledge(seed, index, draw_shape(seed, index));
      {
        const Span span("persist.store");
        repo.store(object);
      }
      snapshots.with_write([&](persist::KnowledgeRepository& primary) {
        primary.store(make_ior_knowledge(seed, index + 500,
                                         draw_shape(seed, index + 500)));
      });
      const Span span("snapshot.acquire_after_write");
      snapshots.snapshot();
    }
    for (std::uint64_t i = 0; i < 3; ++i) {
      const IorShape shape = draw_shape(seed, kWrittenBase / 4 + i);
      const std::string command = shape.command("/scratch/kb/query");
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
      {
        const Span span("usage.knn_predict");
        usage::knn_predict(samples, query);
      }
      const Span span("usage.recommend");
      usage::recommend(repo, gen::parse_ior_command(command), "write");
    }
  }
}

double file_bytes(const std::filesystem::path& dir) {
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind("primary.db", 0) == 0) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

}  // namespace

void run_service(const Options& options, Outcome& outcome) {
  const Kind kind = options.workload == "svc-point"   ? Kind::kPoint
                    : options.workload == "svc-mixed" ? Kind::kMixed
                                                      : Kind::kCluster;
  CorpusRecord record;
  record.corpus = make_corpus(options.seed, kCorpusObjects, kCorpusIo500);
  for (const knowledge::Knowledge& object : record.corpus.knowledge) {
    record.ior_objects += object.benchmark == "IOR" ? 1 : 0;
    record.mdtest_objects += object.benchmark == "mdtest" ? 1 : 0;
    record.anomaly_counts.push_back(
        analysis::with_job_context(analysis::detect_in_knowledge(object),
                                   object)
            .size());
  }

  // Set up several times and keep the last deployment; setup_s is the
  // median, so one slow set-up does not move it.
  std::vector<double> setup_times;
  std::unique_ptr<Deployment> dep;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    if (dep) {
      const std::filesystem::path dir = dep->dir;
      dep.reset();
      std::filesystem::remove_all(dir);
    }
    const auto started = Clock::now();
    dep = deploy(kind, options, record, attempt);
    setup_times.push_back(elapsed_us(started) / 1e6);
  }

  WriteLedger ledger;
  Workload workload(kind, options, record, ledger, outcome);
  // The traced run measures half its time untraced and half traced; the
  // ratio of their throughputs is the tracing overhead.
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  Window untraced =
      run_window(workload, options.clients, untraced_seconds, 0, dep->targets);
  std::optional<Window> traced;
  if (options.trace) {
    Tracer::set_enabled(true);
    traced = run_window(workload, options.clients, options.seconds / 2,
                        1ull << 20, dep->targets);
  }

  const svc::ServerStats stats = dep->front().stats();
  std::map<std::string, double> layer;
  if (kind == Kind::kCluster) {
    util::JsonObject shipper;
    dep->primary->shipper().extend_stats(shipper);
    for (const auto& [key, value] : shipper) {
      if (key == "shipped_batches") {
        layer["repl.shipped_batches"] = value.as_double();
      }
    }
    const auto started = Clock::now();
    const std::uint64_t seq = dep->repo->applied_seq();
    for (auto& replica : dep->replicas) {
      if (!replica->replication().wait_applied(seq, 60000)) {
        outcome.fail_check("a replica did not catch up after the run");
      }
    }
    layer["repl.catchup_ms"] = elapsed_us(started) / 1000.0;
  }
  dep->stop();

  // Post-run oracles: every acknowledged write is on the primary, and the
  // replicas hold byte-identical copies of it.
  for (const auto& [id, object] : ledger.objects) {
    try {
      if (!(dep->repo->load_knowledge(id) == object)) {
        outcome.fail_check("acked write " + std::to_string(id) +
                           " reads back different on the primary");
      }
    } catch (const Error& error) {
      outcome.fail_check("acked write " + std::to_string(id) +
                         " is not readable on the primary: " + error.what());
    }
  }
  if (kind == Kind::kCluster) {
    const std::string primary_dump = dep->repo->dump_with_epoch().dump;
    for (auto& replica_repo : dep->replica_repos) {
      if (replica_repo->dump_with_epoch().dump != primary_dump) {
        outcome.fail_check("a replica's dump differs from the primary's");
      }
    }
  }

  for (const Window* window : {&untraced, traced ? &*traced : nullptr}) {
    if (window == nullptr) {
      continue;
    }
    for (const ClientResult& client : window->clients) {
      outcome.attempted += client.attempted;
      outcome.failed += client.failed;
    }
  }

  if (!options.trace) {
    outcome.add_metric("setup_s", median(setup_times), "s");
    outcome.add_metric("peak_rss_mib", peak_rss_mib(), "MiB");
    outcome.add_metric("ops_per_s",
                       untraced.ops_per_s(round_template(kind).size()), "1/s");
    outcome.add_metric("read_p99_us",
                       latency_quantile(untraced, is_read, 0.99), "us");
    return;
  }

  Tracer::set_enabled(true);
  replay_layers(kind, workload, *dep, record, options, outcome, layer);
  Tracer::set_enabled(false);
  const auto spans = Tracer::durations_by_name();

  for (const char* endpoint : {"health", "stats", "list", "sql",
                               "knowledge/get", "knowledge/store", "predict",
                               "recommend", "anomaly"}) {
    layer["endpoint." + metric_endpoint(endpoint) + ".p50_us"] =
        span_p50(spans, std::string("client:") + endpoint);
  }
  std::vector<double> client_us;
  for (const auto& [name, durations] : spans) {
    if (name.rfind("client:", 0) == 0) {
      client_us.insert(client_us.end(), durations.begin(), durations.end());
    }
  }
  // The replay sends the same request mix, so the difference of the two
  // medians is what a median request spends outside Server::dispatch:
  // framing, sockets, scheduling and queueing.
  layer["svc.dispatch_us"] = span_p50(spans, "svc.dispatch");
  layer["svc.transport_us"] = median(client_us) - layer["svc.dispatch_us"];
  layer["json.parse_us"] = span_p50(spans, "json.parse");
  layer["json.dump_us"] = span_p50(spans, "json.dump");
  layer["db.exec_us"] = span_p50(spans, "db.execute");
  layer["db.sql_cache_hits"] = static_cast<double>(stats.sql_cache_hits);
  layer["db.sql_cache_misses"] = static_cast<double>(stats.sql_cache_misses);
  layer["snapshot.acquire_cached_us"] =
      span_p50(spans, "snapshot.acquire_cached");
  layer["snapshot.acquire_after_write_us"] =
      span_p50(spans, "snapshot.acquire_after_write");
  layer["snapshot.full_rebuilds"] =
      static_cast<double>(stats.snapshot_full_rebuilds);
  layer["snapshot.delta_applies"] =
      static_cast<double>(stats.snapshot_delta_applies);
  layer["persist.load_us"] = span_p50(spans, "persist.load_knowledge");
  layer["persist.list_us"] = span_p50(spans, "persist.list_commands");
  layer["persist.store_us"] = span_p50(spans, "persist.store");
  layer["usage.training_set_us"] = span_p50(spans, "usage.build_training_set");
  layer["usage.fit_us"] = span_p50(spans, "usage.fit");
  layer["usage.knn_us"] = span_p50(spans, "usage.knn_predict");
  layer["usage.recommend_us"] = span_p50(spans, "usage.recommend");
  layer["analysis.anomaly_us"] =
      span_p50(spans, "analysis.detect_in_knowledge");
  if (kind != Kind::kPoint) {
    layer["db.file_bytes_per_object"] =
        file_bytes(dep->dir) /
        static_cast<double>(dep->repo->knowledge_ids().size() +
                            dep->repo->io500_ids().size());
  }
  if (kind == Kind::kCluster) {
    std::vector<std::uint64_t> reads(dep->targets.size(), 0);
    for (const Window* window : {&untraced, &*traced}) {
      for (const ClientResult& client : window->clients) {
        for (std::size_t t = 0; t < client.reads_per_target.size(); ++t) {
          reads[t] += client.reads_per_target[t];
        }
      }
    }
    std::uint64_t total = 0;
    for (const std::uint64_t count : reads) {
      total += count;
    }
    layer["repl.read_share_min"] =
        total > 0 ? static_cast<double>(
                        *std::min_element(reads.begin(), reads.end())) /
                        static_cast<double>(total)
                  : 0.0;
  }
  layer["client.get_p50_us"] = latency_quantile(*traced, is_get, 0.50);
  layer["client.write_p50_us"] = latency_quantile(*traced, is_write, 0.50);
  layer["client.write_p99_us"] = latency_quantile(*traced, is_write, 0.99);
  layer["client.fresh_read_p50_us"] =
      latency_quantile(*traced, is_fresh_read, 0.50);
  const std::size_t round_steps = round_template(kind).size();
  layer["tracing.overhead_pct"] = (untraced.ops_per_s(round_steps) /
                                       traced->ops_per_s(round_steps) -
                                   1.0) *
                                  100.0;
  add_layer_metrics(outcome, layer);
}

}  // namespace perfbench
