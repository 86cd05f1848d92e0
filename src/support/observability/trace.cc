#include "support/observability/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "support/error.h"
#include "support/json.h"

namespace firmres::support::trace {

namespace {

std::atomic<bool> g_enabled{false};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One thread's completed spans. The owning thread appends; collect()
/// swaps the vector out. Each buffer has its own mutex, so the append
/// path locks an uncontended mutex (collect() runs when the workload is
/// quiescent) and threads never serialize against each other.
struct ThreadBuffer {
  std::mutex mutex;
  std::uint64_t thread_id = 0;
  std::uint64_t next_sequence = 0;
  std::vector<Event> events;
};

struct Collector {
  std::mutex mutex;
  std::uint64_t next_thread_id = 0;
  /// shared_ptr keeps buffers alive after their thread exited (the events
  /// must survive until collect()).
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Collector& collector() {
  static Collector* c = new Collector();  // leaked: spans may outlive main
  return *c;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    b->thread_id = c.next_thread_id++;
    c.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, const char* category, int device_id,
           double* slot)
    : live_(g_enabled.load(std::memory_order_relaxed)),
      slot_(slot),
      name_(name),
      category_(category),
      device_id_(device_id) {
  if (live_ || slot_ != nullptr) start_ns_ = now_ns();
}

void Span::arg(const char* key, std::string value) {
  if (live_) args_.emplace_back(key, std::move(value));
}

Span::~Span() {
  if (!live_ && slot_ == nullptr) return;
  const std::uint64_t duration_ns = now_ns() - start_ns_;
  if (slot_ != nullptr) *slot_ += static_cast<double>(duration_ns) * 1e-9;
  if (!live_) return;
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  Event& e = buffer.events.emplace_back();
  e.name = name_;
  e.category = category_;
  e.device_id = device_id_;
  e.start_ns = start_ns_;
  e.duration_ns = duration_ns;
  e.thread_id = buffer.thread_id;
  e.sequence = buffer.next_sequence++;
  e.args = std::move(args_);
}

std::vector<Event> collect() {
  std::vector<Event> all;
  Collector& c = collector();
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    for (const std::shared_ptr<ThreadBuffer>& buffer : c.buffers) {
      std::lock_guard<std::mutex> block(buffer->mutex);
      for (Event& e : buffer->events) all.push_back(std::move(e));
      buffer->events.clear();
    }
  }
  // Deterministic total order: no two events of one thread share a
  // sequence number, so (start, thread, sequence) never ties.
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
    return a.sequence < b.sequence;
  });
  return all;
}

void clear() { collect(); }

std::string to_chrome_json(const std::vector<Event>& events) {
  JsonArray trace_events;
  for (const Event& e : events) {
    Json entry{JsonObject{}};
    entry.set("name", e.name);
    entry.set("cat", e.category);
    entry.set("ph", "X");  // complete event: ts + dur
    entry.set("ts", static_cast<double>(e.start_ns) / 1e3);
    entry.set("dur", static_cast<double>(e.duration_ns) / 1e3);
    entry.set("pid", 1);
    entry.set("tid", static_cast<double>(e.thread_id));
    if (e.device_id != 0 || !e.args.empty()) {
      Json args{JsonObject{}};
      if (e.device_id != 0) args.set("device_id", e.device_id);
      for (const auto& [key, value] : e.args) args.set(key, value);
      entry.set("args", std::move(args));
    }
    trace_events.push_back(std::move(entry));
  }
  Json doc{JsonObject{}};
  doc.set("traceEvents", Json(std::move(trace_events)));
  doc.set("displayTimeUnit", "ms");
  return doc.dump(true);
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Event>& events) {
  const std::string body = to_chrome_json(events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw ParseError("cannot write trace file " + path);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

void write_chrome_trace(const std::string& path) {
  write_chrome_trace(path, collect());
}

}  // namespace firmres::support::trace
