#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::uint64_t current = 0;  // innermost open span on this thread
  std::vector<SpanRecord> records;
};

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;  // guarded by the mutex
std::atomic<std::uint64_t> g_next_id{1};

/// The calling thread's buffer, registered on first use. The registry keeps
/// it alive after the thread exits so collect() still sees its spans.
ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    created->thread = static_cast<std::uint32_t>(g_buffers.size() + 1);
    g_buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::collect() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->records.begin(), buffer->records.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

std::map<std::string, std::vector<double>> Tracer::durations_by_name() {
  std::map<std::string, std::vector<double>> by_name;
  for (const SpanRecord& record : collect()) {
    by_name[record.name].push_back(record.duration_us());
  }
  return by_name;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write trace " + path.string());
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char number[64];
  for (const SpanRecord& record : collect()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << json_escape(record.name)
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << record.thread << ",\"ts\":";
    std::snprintf(number, sizeof number, "%.3f",
                  static_cast<double>(record.start_ns) / 1000.0);
    out << number << ",\"dur\":";
    std::snprintf(number, sizeof number, "%.3f", record.duration_us());
    out << number << ",\"args\":{\"id\":" << record.id
        << ",\"parent\":" << record.parent
        << ",\"request\":" << record.request << "}}";
  }
  out << "\n]}\n";
  if (!out) {
    throw std::runtime_error("short write on trace " + path.string());
  }
}

Span::Span(std::string_view name, std::uint64_t request) {
  if (!Tracer::enabled()) {
    return;
  }
  on_ = true;
  name_ = name;
  ThreadBuffer& buffer = local_buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = buffer.current;
  request_ = request;
  buffer.current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!on_) {
    return;
  }
  const std::int64_t end = now_ns();
  ThreadBuffer& buffer = local_buffer();
  buffer.current = parent_;
  buffer.records.push_back(SpanRecord{std::move(name_), start_ns_, end, id_,
                                      parent_, request_, buffer.thread});
}

double chunked_quantile(const std::vector<double>& ordered, double q) {
  const double min_chunk = std::max(200.0, 10.0 / (1.0 - q));
  const std::size_t chunks = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(ordered.size()) /
                                  min_chunk));
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto begin = ordered.begin() + static_cast<std::ptrdiff_t>(
                                             ordered.size() * c / chunks);
    const auto end = ordered.begin() + static_cast<std::ptrdiff_t>(
                                           ordered.size() * (c + 1) / chunks);
    per_chunk.push_back(quantile(std::vector<double>(begin, end), q));
  }
  std::sort(per_chunk.begin(), per_chunk.end());
  const std::size_t trim = per_chunk.size() / 10;
  double sum = 0.0;
  for (std::size_t i = trim; i < per_chunk.size() - trim; ++i) {
    sum += per_chunk[i];
  }
  return sum / static_cast<double>(per_chunk.size() - 2 * trim);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

}  // namespace perfbench
