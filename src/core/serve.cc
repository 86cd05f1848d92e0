#include "core/serve.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "core/corpus_runner.h"
#include "core/report.h"
#include "support/json.h"
#include "support/observability/events.h"
#include "support/observability/metrics.h"
#include "support/strings.h"

namespace firmres::core {

namespace {

namespace events = support::events;
using support::Json;
using support::JsonObject;

// Serve-loop counters (Work-kind: command counts are what the client sent).
support::metrics::Counter g_jobs_accepted("serve.jobs_accepted",
                                          support::metrics::Kind::Work);
support::metrics::Counter g_jobs_done("serve.jobs_done",
                                      support::metrics::Kind::Work);
support::metrics::Counter g_bad_commands("serve.bad_commands",
                                         support::metrics::Kind::Work);

struct Job {
  std::uint64_t id = 0;
  std::vector<std::string> dirs;
};

namespace metrics = support::metrics;

std::uint64_t find_counter(const metrics::Snapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

std::uint64_t find_gauge(const metrics::Snapshot& snap,
                         const std::string& name) {
  for (const auto& g : snap.gauges)
    if (g.name == name) return g.value;
  return 0;
}

/// Queue/worker state sampled into each heartbeat.
struct JobGauges {
  std::uint64_t accepted = 0;
  std::uint64_t done = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t queue_depth = 0;
};

/// One "stats" heartbeat record (docs/OBSERVABILITY.md pins this schema;
/// tools/check_stats_schema.py and tests/test_serve.cc validate it).
/// `delta` is the interval's change over the full (Runtime-inclusive)
/// registry snapshot.
Json stats_record(std::uint64_t seq, double uptime_s, double interval_s,
                  const metrics::Snapshot& delta, const JobGauges& jobs) {
  const double safe_interval = interval_s > 1e-9 ? interval_s : 1e-9;

  Json doc{JsonObject{}};
  doc.set("event", "stats");
  doc.set("seq", static_cast<double>(seq));
  doc.set("uptime_s", uptime_s);
  doc.set("interval_s", interval_s);

  Json jobs_doc{JsonObject{}};
  jobs_doc.set("accepted", static_cast<double>(jobs.accepted));
  jobs_doc.set("done", static_cast<double>(jobs.done));
  jobs_doc.set("in_flight", static_cast<double>(jobs.in_flight));
  jobs_doc.set("queue_depth", static_cast<double>(jobs.queue_depth));
  doc.set("jobs", std::move(jobs_doc));

  const std::uint64_t devices =
      find_counter(delta, "pipeline.devices_analyzed");
  Json throughput{JsonObject{}};
  throughput.set("devices_analyzed", static_cast<double>(devices));
  throughput.set("devices_per_s",
                 static_cast<double>(devices) / safe_interval);
  doc.set("throughput", std::move(throughput));

  // Every phase.* latency histogram that saw traffic this interval gets a
  // percentile block — the "where does analysis time go" section.
  Json phases{JsonObject{}};
  for (const auto& h : delta.histograms) {
    if (h.count == 0) continue;
    if (h.name.rfind("phase.", 0) != 0) continue;
    Json entry{JsonObject{}};
    entry.set("count", static_cast<double>(h.count));
    entry.set("p50", metrics::histogram_percentile(h, 0.50));
    entry.set("p90", metrics::histogram_percentile(h, 0.90));
    entry.set("p99", metrics::histogram_percentile(h, 0.99));
    entry.set("max", metrics::histogram_percentile(h, 1.0));
    phases.set(h.name.substr(6), std::move(entry));
  }
  doc.set("phases", std::move(phases));

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& c : delta.counters) {
    if (c.name.rfind("cache.", 0) != 0) continue;
    if (c.name.size() >= 5 && c.name.rfind("_hits") == c.name.size() - 5)
      hits += c.value;
    if (c.name.size() >= 7 && c.name.rfind("_misses") == c.name.size() - 7)
      misses += c.value;
  }
  Json cache{JsonObject{}};
  cache.set("hits", static_cast<double>(hits));
  cache.set("misses", static_cast<double>(misses));
  cache.set("hit_rate", hits + misses == 0
                            ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses));
  doc.set("cache", std::move(cache));

  Json pool{JsonObject{}};
  pool.set("queue_depth_max",
           static_cast<double>(find_gauge(delta, "pool.queue_depth_max")));
  doc.set("pool", std::move(pool));
  return doc;
}

}  // namespace

ServeSession::ServeSession(const SemanticsModel& model,
                           Pipeline::Options pipeline_options,
                           Options options)
    : pipeline_(model, pipeline_options), options_(options) {}

int ServeSession::run(std::istream& in, std::ostream& out) {
  std::mutex out_mu;
  const auto emit_line = [&](const Json& doc) {
    std::lock_guard<std::mutex> lock(out_mu);
    out << doc.dump(false) << "\n";
    out.flush();  // the client blocks on lines, not on buffers
  };

  // One worker drains the FIFO so a long job never blocks command intake —
  // the client can keep queueing firmware drops while analysis runs.
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Job> queue;
  bool closing = false;
  int processed = 0;

  // Session-local views of queue/worker state for the stats heartbeat
  // (the registry counters are process-global and would bleed across
  // back-to-back sessions in one process, e.g. under test).
  std::atomic<std::uint64_t> session_accepted{0};
  std::atomic<std::uint64_t> session_done{0};
  std::atomic<std::uint64_t> session_in_flight{0};

  const auto process_job = [&](const Job& job) {
    // Each directory loads inside its task: an unreadable or corrupt image
    // becomes a failure with CorpusRunner's one-retry isolation, exactly
    // like a throwing analysis.
    CorpusRunner::Options runner_options;
    runner_options.jobs = options_.jobs;
    runner_options.retry_failed = options_.retry_failed;
    const std::vector<DirectoryResult> results =
        CorpusRunner(pipeline_, runner_options).run_dirs(job.dirs);

    std::int64_t reports = 0;
    for (std::size_t i = 0; i < job.dirs.size(); ++i) {
      if (!results[i].analysis.has_value()) continue;
      ++reports;
      emit_line(Json(JsonObject{
          {"event", Json("report")},
          {"job", Json(static_cast<std::int64_t>(job.id))},
          {"image", Json(job.dirs[i])},
          {"device", Json(results[i].analysis->device_id)},
          {"report",
           analysis_to_json(*results[i].analysis, /*include_timings=*/false)},
      }));
    }
    for (std::size_t i = 0; i < job.dirs.size(); ++i) {
      if (!results[i].failure.has_value()) continue;
      emit_line(Json(JsonObject{
          {"event", Json("device_error")},
          {"job", Json(static_cast<std::int64_t>(job.id))},
          {"image", Json(job.dirs[i])},
          {"attempts", Json(results[i].failure->attempts)},
          {"error", Json(results[i].failure->error)},
      }));
    }
    if (options_.stream_events && events::enabled()) {
      for (const events::Event& e : events::collect()) {
        emit_line(Json(JsonObject{
            {"event", Json("analysis_event")},
            {"job", Json(static_cast<std::int64_t>(job.id))},
            {"data", Json::parse(events::to_json_line(e))},
        }));
      }
      events::clear();  // next job streams only its own events
    }
    emit_line(Json(JsonObject{
        {"event", Json("done")},
        {"job", Json(static_cast<std::int64_t>(job.id))},
        {"reports", Json(reports)},
        {"failures",
         Json(static_cast<std::int64_t>(job.dirs.size()) - reports)},
    }));
    g_jobs_done.add();
    session_done.fetch_add(1, std::memory_order_relaxed);
  };

  std::thread worker([&] {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [&] { return closing || !queue.empty(); });
        if (queue.empty()) return;  // closing and fully drained
        job = std::move(queue.front());
        queue.pop_front();
      }
      session_in_flight.store(1, std::memory_order_relaxed);
      process_job(job);
      session_in_flight.store(0, std::memory_order_relaxed);
      ++processed;  // worker-only write; main reads after join()
    }
  });

  emit_line(Json(JsonObject{
      {"event", Json("ready")},
      {"format", Json("firmres-serve")},
      {"version", Json(1)},
  }));

  // The stats thread snapshots the registry on its own cadence and emits
  // interval deltas. It keeps the previous snapshot privately, so the
  // main thread only signals shutdown; the final (tail) tick is emitted
  // by the thread itself on its way out, before "bye".
  std::mutex stats_mu;
  std::condition_variable stats_cv;
  bool stats_stop = false;
  std::thread stats_thread;
  if (options_.stats_interval_s > 0.0) {
    stats_thread = std::thread([&] {
      using clock = std::chrono::steady_clock;
      const auto session_start = clock::now();
      auto last_tick = session_start;
      metrics::Snapshot prev = metrics::snapshot(/*include_runtime=*/true);
      std::uint64_t seq = 0;
      for (;;) {
        bool stopping;
        {
          std::unique_lock<std::mutex> lock(stats_mu);
          stopping = stats_cv.wait_for(
              lock,
              std::chrono::duration<double>(options_.stats_interval_s),
              [&] { return stats_stop; });
        }
        const auto now = clock::now();
        const double interval_s =
            std::chrono::duration<double>(now - last_tick).count();
        const double uptime_s =
            std::chrono::duration<double>(now - session_start).count();
        metrics::Snapshot cur = metrics::snapshot(/*include_runtime=*/true);
        JobGauges jobs;
        jobs.accepted = session_accepted.load(std::memory_order_relaxed);
        jobs.done = session_done.load(std::memory_order_relaxed);
        jobs.in_flight = session_in_flight.load(std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(queue_mu);
          jobs.queue_depth = queue.size();
        }
        emit_line(stats_record(++seq, uptime_s, interval_s, cur.delta(prev),
                               jobs));
        prev = std::move(cur);
        last_tick = now;
        if (stopping) return;
      }
    });
  }

  std::uint64_t next_job = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> tokens = support::split_any(line, " \t\r");
    if (tokens.empty()) continue;
    const std::string& cmd = tokens[0];
    if (cmd == "quit") break;
    if (cmd == "ping") {
      emit_line(Json(JsonObject{{"event", Json("pong")}}));
      continue;
    }
    if (cmd == "analyze") {
      if (tokens.size() < 2) {
        g_bad_commands.add();
        emit_line(Json(JsonObject{
            {"event", Json("error")},
            {"error", Json("analyze requires at least one image directory")},
        }));
        continue;
      }
      Job job;
      job.id = ++next_job;
      job.dirs.assign(tokens.begin() + 1, tokens.end());
      g_jobs_accepted.add();
      session_accepted.fetch_add(1, std::memory_order_relaxed);
      emit_line(Json(JsonObject{
          {"event", Json("accepted")},
          {"job", Json(static_cast<std::int64_t>(job.id))},
          {"images", Json(static_cast<std::int64_t>(job.dirs.size()))},
      }));
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        queue.push_back(std::move(job));
      }
      queue_cv.notify_one();
      continue;
    }
    g_bad_commands.add();
    emit_line(Json(JsonObject{
        {"event", Json("error")},
        {"error", Json("unknown command: " + cmd)},
    }));
  }

  {
    std::lock_guard<std::mutex> lock(queue_mu);
    closing = true;
  }
  queue_cv.notify_one();
  worker.join();
  if (stats_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      stats_stop = true;
    }
    stats_cv.notify_one();
    stats_thread.join();  // emits the final tail tick on its way out
  }
  emit_line(Json(JsonObject{
      {"event", Json("bye")},
      {"jobs", Json(processed)},
  }));
  return processed;
}

}  // namespace firmres::core
