// Observability layer tests (docs/OBSERVABILITY.md, docs/PROVENANCE.md):
// span nesting and deterministic cross-thread merge, metrics aggregation
// equality across job counts, the runtime no-op gate, the
// chrome://tracing export schema, the decision-event log's content-ordered
// merge, and JSON string-escaping hardening shared by every exporter.
#include "support/observability/events.h"
#include "support/observability/metrics.h"
#include "support/observability/profile.h"
#include "support/observability/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis_cache.h"
#include "core/corpus_runner.h"
#include "core/report.h"
#include "firmware/synthesizer.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace firmres {
namespace {

namespace events = support::events;
namespace trace = support::trace;
namespace metrics = support::metrics;

/// RAII: turn tracing on for one test, drop any buffered events on both
/// ends so tests cannot leak spans into each other.
struct ScopedTracing {
  ScopedTracing() {
    trace::clear();
    trace::set_enabled(true);
  }
  ~ScopedTracing() {
    trace::set_enabled(false);
    trace::clear();
  }
};

TEST(Trace, SpansNestAndCarryArgs) {
  ScopedTracing tracing;
  {
    trace::Span outer("outer", "test", 42);
    outer.arg("key", "value");
    { trace::Span inner("inner", "test"); }
  }
  const std::vector<trace::Event> events = trace::collect();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete inner-first but the merge orders by start time.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[0].device_id, 42);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "key");
  EXPECT_EQ(events[0].args[0].second, "value");
  // The inner span's lifetime is contained in the outer's.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
  // collect() drained the buffers.
  EXPECT_TRUE(trace::collect().empty());
}

TEST(Trace, MultiThreadMergeIsDeterministicallyOrdered) {
  ScopedTracing tracing;
  {
    support::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([] {
        trace::Span span("worker", "test");
        (void)span;
      }));
    }
    for (auto& f : futures) f.get();
  }
  const std::vector<trace::Event> events = trace::collect();
  // 16 explicit spans plus the pool's own pool.task spans.
  EXPECT_GE(events.size(), 16u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    const trace::Event& a = events[i - 1];
    const trace::Event& b = events[i];
    const bool ordered =
        a.start_ns < b.start_ns ||
        (a.start_ns == b.start_ns &&
         (a.thread_id < b.thread_id ||
          (a.thread_id == b.thread_id && a.sequence < b.sequence)));
    EXPECT_TRUE(ordered) << "events " << i - 1 << " and " << i
                         << " out of order";
  }
}

TEST(Trace, RuntimeDisabledRecordsNothing) {
  trace::clear();
  trace::set_enabled(false);
  {
    FIRMRES_SPAN("ghost", "test");
    FIRMRES_SPAN_DEVICE("ghost2", "test", 7);
  }
  EXPECT_TRUE(trace::collect().empty());
}

TEST(Trace, ChromeJsonMatchesTraceEventSchema) {
  ScopedTracing tracing;
  {
    trace::Span span("schema", "test", 3);
    span.arg("detail", "x");
  }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "firmres_trace_test.json";
  trace::write_chrome_trace(path.string());
  std::string body;
  {
    std::FILE* f = std::fopen(path.string().c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
    std::fclose(f);
  }
  std::filesystem::remove(path);

  const support::Json doc = support::Json::parse(body);
  ASSERT_TRUE(doc.is_object());
  const support::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->size(), 1u);
  for (const support::Json& e : events->as_array()) {
    ASSERT_TRUE(e.is_object());
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"})
      ASSERT_NE(e.find(key), nullptr) << "missing " << key;
    EXPECT_EQ(e.find("ph")->as_string(), "X");  // complete-event phase
    EXPECT_TRUE(e.find("ts")->is_number());
    EXPECT_TRUE(e.find("dur")->is_number());
  }
  const support::Json& first = events->as_array()[0];
  EXPECT_EQ(first.find("name")->as_string(), "schema");
  EXPECT_EQ(first.find("cat")->as_string(), "test");
  const support::Json* args = first.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("device_id")->as_number(), 3.0);
  EXPECT_EQ(args->find("detail")->as_string(), "x");
}

TEST(Metrics, CountersGaugesHistogramsAggregate) {
  static metrics::Counter counter("test.counter", metrics::Kind::Work);
  static metrics::Gauge gauge("test.gauge", metrics::Kind::Work);
  static metrics::Histogram histogram("test.histogram",
                                      metrics::Kind::Work);
  counter.reset();
  gauge.reset();
  histogram.reset();

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 1000; ++i) counter.add();
      gauge.record(static_cast<std::uint64_t>(t + 1));
      histogram.observe(1);    // bucket value < 2
      histogram.observe(100);  // bucket value < 128
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter.value(), 4000u);
  EXPECT_EQ(gauge.value(), 4u);  // high-water mark, not last write
  EXPECT_EQ(histogram.count(), 8u);
  EXPECT_EQ(histogram.sum(), 4u * 101u);
  EXPECT_EQ(histogram.bucket(1), 4u);  // 1 < 2^1
  EXPECT_EQ(histogram.bucket(7), 4u);  // 100 < 2^7
}

TEST(Metrics, SnapshotFiltersRuntimeKind) {
  static metrics::Counter work("test.kind_work", metrics::Kind::Work);
  static metrics::Counter runtime("test.kind_runtime",
                                  metrics::Kind::Runtime);
  work.add();
  runtime.add();
  const metrics::Snapshot all = metrics::snapshot(true);
  const metrics::Snapshot deterministic = metrics::snapshot(false);
  const auto has = [](const metrics::Snapshot& snap, const char* name) {
    for (const auto& c : snap.counters)
      if (c.name == name) return true;
    return false;
  };
  EXPECT_TRUE(has(all, "test.kind_work"));
  EXPECT_TRUE(has(all, "test.kind_runtime"));
  EXPECT_TRUE(has(deterministic, "test.kind_work"));
  EXPECT_FALSE(has(deterministic, "test.kind_runtime"));
}

/// The acceptance property behind --metrics-out: the Work-kind section of
/// the dump is byte-identical however the corpus run was scheduled.
TEST(Metrics, WorkDumpIsByteIdenticalAcrossJobCounts) {
  const core::KeywordModel model;
  const core::Pipeline pipeline(model);
  std::vector<fw::FirmwareImage> corpus;
  for (const int id : {1, 2, 3, 4, 21})
    corpus.push_back(fw::synthesize(fw::profile_by_id(id)));

  const auto dump_for_jobs = [&](int jobs) {
    metrics::reset_all();
    const core::CorpusRunner runner(pipeline, {.jobs = jobs});
    const core::CorpusResult result = runner.run(corpus);
    EXPECT_TRUE(result.failures.empty());
    return metrics::to_json(metrics::snapshot(false));
  };
  const std::string sequential = dump_for_jobs(1);
  EXPECT_NE(sequential.find("taint.steps"), std::string::npos);
  EXPECT_NE(sequential.find("pipeline.devices_analyzed"), std::string::npos);
  EXPECT_EQ(dump_for_jobs(4), sequential);
  EXPECT_EQ(dump_for_jobs(0), sequential);  // hardware concurrency
}

/// The per-device metrics block of the report is Work-only and emitted in
/// a fixed order, so it survives the timings-omitted byte comparison.
TEST(Metrics, ReportMetricsBlockIsJobsInvariant) {
  const core::KeywordModel model;
  const core::Pipeline pipeline(model);
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(2));

  const core::DeviceAnalysis sequential = pipeline.analyze(image);
  support::ThreadPool pool(4);
  const core::DeviceAnalysis parallel = pipeline.analyze(image, &pool);

  ASSERT_FALSE(sequential.metrics.empty());
  EXPECT_EQ(sequential.metrics, parallel.metrics);
  const std::string report =
      core::analysis_to_json(sequential, /*include_timings=*/false)
          .dump(true);
  EXPECT_NE(report.find("\"metrics\""), std::string::npos);
  EXPECT_NE(report.find("taint.mft_nodes"), std::string::npos);
}

TEST(Trace, SlotSpanBillsItsTracedDuration) {
  double slot = 0.0;
  {
    ScopedTracing tracing;
    { trace::Span span("billed", "test", 0, &slot); }
    const std::vector<trace::Event> events = trace::collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(slot, static_cast<double>(events[0].duration_ns) * 1e-9);
  }
  // Tracing off: the slot is still billed, and nothing is recorded.
  const double traced = slot;
  { FIRMRES_SPAN_DEVICE("billed", "test", 0, &slot); }
  EXPECT_GT(slot, traced);
  EXPECT_TRUE(trace::collect().empty());
}

/// Span name → the report key of the PhaseTimings slot it bills
/// (docs/OBSERVABILITY.md).
const std::map<std::string, std::string> kBillingSpans = {
    {"phase.components", "pinpoint_s"},
    {"phase.pinpoint", "pinpoint_s"},
    {"phase.fields", "fields_s"},
    {"reconstruct.semantics", "semantics_s"},
    {"reconstruct.concat", "concat_s"},
    {"reconstruct.deliver", "concat_s"},
    {"phase.check", "check_s"},
    {"cache.store", "cache_store_s"},
};

/// Analyze the Table I corpus at `jobs` with tracing on — through a fresh
/// (cold) analysis cache when `cold_cache` — and reconcile every device's
/// PhaseTimings with the spans recorded on its analyzing thread: each slot
/// is the sum of the spans that bill it, billing spans never overlap, and
/// the slots cover most of the device's pipeline.analyze span.
void reconcile_phase_timings(int jobs, bool cold_cache) {
  const core::KeywordModel model;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("firmres-reconcile-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::optional<core::AnalysisCache> cache;
  core::Pipeline::Options options;
  if (cold_cache)
    options.cache = &cache.emplace(core::AnalysisCache::Options{
        .dir = dir.string()});
  const core::Pipeline pipeline(model, options);
  const std::vector<fw::FirmwareImage> corpus = fw::synthesize_corpus();
  core::CorpusResult result;
  std::vector<trace::Event> events;
  {
    ScopedTracing tracing;
    result = core::CorpusRunner(pipeline, {.jobs = jobs}).run(corpus);
    events = trace::collect();
  }
  cache.reset();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(result.failures.empty());

  // A billing span belongs to the innermost pipeline.analyze span of its
  // thread that contains it.
  std::vector<const trace::Event*> analyze_spans;
  for (const trace::Event& e : events)
    if (e.name == "pipeline.analyze") analyze_spans.push_back(&e);
  const auto end = [](const trace::Event& e) {
    return e.start_ns + e.duration_ns;
  };
  const auto within = [&](const trace::Event& in, const trace::Event& out) {
    return in.thread_id == out.thread_id && in.start_ns >= out.start_ns &&
           end(in) <= end(out);
  };
  struct Billed {
    double ns = 0.0;
    int spans = 0;
  };
  std::map<int, std::map<std::string, Billed>> billed;
  std::map<int, std::vector<const trace::Event*>> device_billing;
  for (const trace::Event& e : events) {
    const auto slot = kBillingSpans.find(e.name);
    if (slot == kBillingSpans.end()) continue;
    const trace::Event* owner = nullptr;
    for (const trace::Event* a : analyze_spans)
      if (within(e, *a) && (owner == nullptr || within(*a, *owner)))
        owner = a;
    ASSERT_NE(owner, nullptr) << e.name << " outside pipeline.analyze";
    Billed& b = billed[owner->device_id][slot->second];
    b.ns += static_cast<double>(e.duration_ns);
    ++b.spans;
    device_billing[owner->device_id].push_back(&e);
  }

  ASSERT_EQ(analyze_spans.size(), result.analyses.size());
  double slots_s = 0.0, analyze_s = 0.0;
  for (const core::DeviceAnalysis& a : result.analyses) {
    SCOPED_TRACE("device " + std::to_string(a.device_id));
    for (const core::Phase& phase : core::kPhases) {
      const Billed b = billed[a.device_id][phase.report_key];
      EXPECT_NEAR(a.timings.*phase.slot * 1e9, b.ns, std::max(b.spans, 1))
          << phase.report_key;
    }
    // Billing spans are disjoint: no time, a cache store's included, is
    // billed to two slots.
    const std::vector<const trace::Event*>& spans =
        device_billing[a.device_id];
    for (std::size_t i = 0; i < spans.size(); ++i)
      for (std::size_t j = i + 1; j < spans.size(); ++j)
        EXPECT_TRUE(end(*spans[i]) <= spans[j]->start_ns ||
                    end(*spans[j]) <= spans[i]->start_ns)
            << spans[i]->name << " overlaps " << spans[j]->name;
    for (const trace::Event* s : analyze_spans) {
      if (s->device_id != a.device_id) continue;
      EXPECT_LE(a.timings.total_s() * 1e9,
                static_cast<double>(s->duration_ns) + spans.size());
      analyze_s += static_cast<double>(s->duration_ns) * 1e-9;
    }
    slots_s += a.timings.total_s();
  }
  EXPECT_GE(slots_s, 0.8 * analyze_s)
      << "phase slots cover too little of pipeline.analyze";
  if (cold_cache) {
    EXPECT_GT(result.aggregate.cache_store_s, 0.0);
  } else {
    EXPECT_EQ(result.aggregate.cache_store_s, 0.0);
  }
}

TEST(PhaseReconciliation, UncachedAtOneJob) {
  reconcile_phase_timings(1, false);
}
TEST(PhaseReconciliation, UncachedAtFourJobs) {
  reconcile_phase_timings(4, false);
}
TEST(PhaseReconciliation, ColdCacheAtOneJob) {
  reconcile_phase_timings(1, true);
}
TEST(PhaseReconciliation, ColdCacheAtFourJobs) {
  reconcile_phase_timings(4, true);
}

/// RAII counterpart of ScopedTracing for the decision-event log.
struct ScopedEvents {
  ScopedEvents() {
    events::clear();
    events::set_enabled(true);
  }
  ~ScopedEvents() {
    events::set_enabled(false);
    events::clear();
  }
};

events::Event make_event(const std::string& category, int device,
                         const std::string& text) {
  events::Event e;
  e.category = category;
  e.device_id = device;
  e.text = text;
  return e;
}

TEST(Events, DisabledEmitRecordsNothing) {
  events::clear();
  events::set_enabled(false);
  events::emit(make_event("taint", 1, "ghost"));
  EXPECT_TRUE(events::collect().empty());
}

TEST(Events, CollectOrdersByContentNotByEmissionTime) {
  ScopedEvents scope;
  // Emitted in reverse content order on one thread.
  events::emit(make_event("taint", 2, "b"));
  events::emit(make_event("taint", 2, "a"));
  events::emit(make_event("concat", 1, "z"));
  const std::vector<events::Event> got = events::collect();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].device_id, 1);
  EXPECT_EQ(got[1].text, "a");
  EXPECT_EQ(got[2].text, "b");
  EXPECT_TRUE(events::collect().empty());  // drained
}

/// The acceptance property behind --events-out: the JSONL export is
/// byte-identical however the emitting work was scheduled.
TEST(Events, JsonlIsByteIdenticalAcrossThreadCounts) {
  const auto jsonl_for_threads = [](int threads) {
    ScopedEvents scope;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([threads, t] {
        // Each thread emits a disjoint slice of the same 24-event set.
        for (int i = t; i < 24; i += threads) {
          events::Event e = make_event("taint", i % 3, "step");
          e.message_key = "0x" + std::to_string(i);
          e.attrs.emplace_back("n", std::to_string(i));
          events::emit(std::move(e));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    return events::to_jsonl(events::collect());
  };
  const std::string sequential = jsonl_for_threads(1);
  EXPECT_EQ(jsonl_for_threads(4), sequential);
  EXPECT_EQ(jsonl_for_threads(8), sequential);
}

TEST(Events, JsonLineOmitsRuntimeFieldsByDefault) {
  ScopedEvents scope;
  events::Event e = make_event("semantics", 7, "classified Address");
  e.severity = events::Severity::Warn;
  e.message_key = "0x4021";
  e.field_key = "server";
  e.attrs.emplace_back("margin", "0.75");
  events::emit(e);
  const std::vector<events::Event> got = events::collect();
  ASSERT_EQ(got.size(), 1u);

  const support::Json line = support::Json::parse(events::to_json_line(got[0]));
  EXPECT_EQ(line.find("severity")->as_string(), "warn");
  EXPECT_EQ(line.find("category")->as_string(), "semantics");
  EXPECT_EQ(line.find("device")->as_number(), 7.0);
  EXPECT_EQ(line.find("message")->as_string(), "0x4021");
  EXPECT_EQ(line.find("field")->as_string(), "server");
  EXPECT_EQ(line.find("attrs")->find("margin")->as_string(), "0.75");
  EXPECT_EQ(line.find("thread"), nullptr);
  EXPECT_EQ(line.find("sequence"), nullptr);
  EXPECT_EQ(line.find("timestamp_ns"), nullptr);

  const support::Json full =
      support::Json::parse(events::to_json_line(got[0], true));
  EXPECT_NE(full.find("thread"), nullptr);
  EXPECT_NE(full.find("sequence"), nullptr);
  EXPECT_NE(full.find("timestamp_ns"), nullptr);
}

TEST(Events, LoggingShimRoutesThroughEventLog) {
  ScopedEvents scope;
  const support::LogLevel before = support::log_level();
  support::set_log_level(support::LogLevel::Info);
  FIRMRES_LOG(Info) << "shimmed " << 42;
  support::set_log_level(before);
  const std::vector<events::Event> got = events::collect();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].category, "log");
  EXPECT_EQ(got[0].text, "shimmed 42");
}

// JSON string escaping is centralized in support::Json::dump, so these
// properties cover the chrome-trace, metrics, event-log, and report
// exporters at once. A firmware string can carry arbitrary bytes; the
// emitted document must stay valid JSON (and valid UTF-8) regardless.
TEST(JsonEscaping, QuotesBackslashesAndControlChars) {
  support::Json doc{support::JsonObject{}};
  doc.set("s", std::string("a\"b\\c\nd\te\x01" "f"));
  EXPECT_EQ(doc.dump(false), "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
  // Round-trips through our own parser.
  const support::Json back = support::Json::parse(doc.dump(false));
  EXPECT_EQ(back.find("s")->as_string(), "a\"b\\c\nd\te\x01" "f");
}

TEST(JsonEscaping, ValidUtf8PassesThroughUnescaped) {
  support::Json doc{support::JsonObject{}};
  doc.set("s", std::string("naïve 设备 🔑"));  // 2-, 3-, and 4-byte sequences
  EXPECT_EQ(doc.dump(false), "{\"s\":\"naïve 设备 🔑\"}");
}

TEST(JsonEscaping, InvalidUtf8BecomesReplacementCharacter) {
  const auto escaped = [](std::string s) {
    support::Json doc{support::JsonObject{}};
    doc.set("s", std::move(s));
    return doc.dump(false);
  };
  // Lone continuation byte, truncated lead, overlong NUL, lone surrogate.
  EXPECT_EQ(escaped("a\x80z"), "{\"s\":\"a\\ufffdz\"}");
  EXPECT_EQ(escaped("a\xE4\xB8"), "{\"s\":\"a\\ufffd\\ufffd\"}");
  EXPECT_EQ(escaped("\xC0\x80"), "{\"s\":\"\\ufffd\\ufffd\"}");
  EXPECT_EQ(escaped("\xED\xA0\x80"), "{\"s\":\"\\ufffd\\ufffd\\ufffd\"}");
}

TEST(JsonEscaping, EventAttrsWithHostileBytesStayParseable) {
  ScopedEvents scope;
  events::Event e = make_event("log", 0, "bad \"bytes\" \x02 \xFF here");
  e.attrs.emplace_back("path\n", "C:\\firmware\\x\x80");
  events::emit(std::move(e));
  const std::string jsonl = events::to_jsonl(events::collect());
  const support::Json line = support::Json::parse(jsonl);
  EXPECT_NE(line.find("text")->as_string().find("bad \"bytes\""),
            std::string::npos);
}

TEST(JsonEscaping, ChromeTraceArgsWithHostileBytesStayParseable) {
  ScopedTracing tracing;
  {
    trace::Span span("na\"me\x1f", "cat\\egory");
    span.arg("k\x90", "v\"\n");
  }
  const std::string body = trace::to_chrome_json(trace::collect());
  const support::Json doc = support::Json::parse(body);
  const support::Json* trace_events = doc.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_GE(trace_events->size(), 1u);
  EXPECT_EQ(trace_events->as_array()[0].find("name")->as_string(),
            "na\"me\x1f");
}

// Pins the power-of-two bucket boundary contract the percentile estimator,
// the OpenMetrics exporter, and tools/check_perf_regression.py all assume:
// an observation of exactly 2^i lands in bucket i+1 (buckets are
// [2^(i-1), 2^i), half-open at the top), zero lands in bucket 0, and
// anything >= 2^26 lands in the unbounded last bucket.
TEST(Metrics, BucketBoundariesArePinned) {
  static metrics::Histogram histogram("test.bucket_pin", metrics::Kind::Work);
  histogram.reset();

  histogram.observe(0);
  EXPECT_EQ(histogram.bucket(0), 1u);

  for (int i = 0; i < metrics::kHistogramBuckets - 2; ++i) {
    histogram.reset();
    histogram.observe(std::uint64_t{1} << i);  // exactly 2^i
    EXPECT_EQ(histogram.bucket(i + 1), 1u) << "2^" << i;
    // ...and 2^i - 1 stays one bucket below (except 2^0 - 1 == 0).
    if (i == 0) continue;
    histogram.reset();
    histogram.observe((std::uint64_t{1} << i) - 1);
    EXPECT_EQ(histogram.bucket(i), 1u) << "2^" << i << " - 1";
  }

  // The last bucket is unbounded: 2^26, 2^40, and UINT64_MAX all land there.
  const int last = metrics::kHistogramBuckets - 1;
  histogram.reset();
  histogram.observe(std::uint64_t{1} << 26);
  histogram.observe(std::uint64_t{1} << 40);
  histogram.observe(~std::uint64_t{0});
  EXPECT_EQ(histogram.bucket(last), 3u);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum(),
            (std::uint64_t{1} << 26) + (std::uint64_t{1} << 40) +
                ~std::uint64_t{0});

  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0u);
  for (int i = 0; i < metrics::kHistogramBuckets; ++i)
    EXPECT_EQ(histogram.bucket(i), 0u) << "bucket " << i;
}

TEST(Metrics, BucketBoundHelpersMatchTheBuckets) {
  EXPECT_EQ(metrics::histogram_bucket_lower(0), 0u);
  EXPECT_EQ(metrics::histogram_bucket_upper(0), 1u);
  EXPECT_EQ(metrics::histogram_bucket_lower(4), 8u);
  EXPECT_EQ(metrics::histogram_bucket_upper(4), 16u);
  const int last = metrics::kHistogramBuckets - 1;
  EXPECT_EQ(metrics::histogram_bucket_lower(last), std::uint64_t{1} << 26);
  EXPECT_EQ(metrics::histogram_bucket_upper(last), std::uint64_t{1} << 27);
}

// Golden percentile values under log-linear interpolation. 100 observations
// of 10 all land in bucket [8, 16): p50 = 8 + 0.5*8 = 12, p90 = 15.2,
// p99 = 15.92, max = 16. tools/check_perf_regression.py pins the same
// goldens against its Python reimplementation.
TEST(Metrics, PercentileGoldens) {
  static metrics::Histogram histogram("test.percentiles",
                                      metrics::Kind::Work);
  histogram.reset();
  for (int i = 0; i < 100; ++i) histogram.observe(10);

  const metrics::Snapshot snap = metrics::snapshot(false);
  const metrics::Snapshot::HistogramValue* h = nullptr;
  for (const auto& entry : snap.histograms)
    if (entry.name == "test.percentiles") h = &entry;
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(metrics::histogram_percentile(*h, 0.50), 12.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_percentile(*h, 0.90), 15.2);
  EXPECT_DOUBLE_EQ(metrics::histogram_percentile(*h, 0.99), 15.92);
  EXPECT_DOUBLE_EQ(metrics::histogram_percentile(*h, 1.0), 16.0);
  EXPECT_EQ(metrics::histogram_percentile(*h, 0.0), 8.0);  // bucket floor
}

TEST(Metrics, PercentileSpansMultipleBuckets) {
  static metrics::Histogram histogram("test.percentile_spread",
                                      metrics::Kind::Work);
  histogram.reset();
  for (int i = 0; i < 50; ++i) histogram.observe(1);    // bucket [1, 2)
  for (int i = 0; i < 50; ++i) histogram.observe(100);  // bucket [64, 128)

  const metrics::Snapshot snap = metrics::snapshot(false);
  for (const auto& h : snap.histograms) {
    if (h.name != "test.percentile_spread") continue;
    // p50 exhausts the first bucket exactly: estimate = hi of [1, 2).
    EXPECT_DOUBLE_EQ(metrics::histogram_percentile(h, 0.50), 2.0);
    // p90 is 80% through the second bucket: 64 + 0.8*64.
    EXPECT_DOUBLE_EQ(metrics::histogram_percentile(h, 0.90), 115.2);
  }

  // Empty histogram: every percentile is 0.
  histogram.reset();
  metrics::Snapshot::HistogramValue empty{};
  empty.name = "empty";
  EXPECT_DOUBLE_EQ(metrics::histogram_percentile(empty, 0.99), 0.0);
}

// The last bucket has no upper bound; the estimate is capped by the
// observed sum so a single huge outlier cannot report above itself.
TEST(Metrics, PercentileLastBucketCappedBySum) {
  static metrics::Histogram histogram("test.percentile_tail",
                                      metrics::Kind::Work);
  histogram.reset();
  histogram.observe((std::uint64_t{1} << 26) + 5);
  const metrics::Snapshot snap = metrics::snapshot(false);
  for (const auto& h : snap.histograms) {
    if (h.name != "test.percentile_tail") continue;
    const double p99 = metrics::histogram_percentile(h, 0.99);
    EXPECT_GE(p99, static_cast<double>(std::uint64_t{1} << 26));
    EXPECT_LE(p99, static_cast<double>(h.sum));
  }
}

TEST(Metrics, DeltaSubtractsCountersAndBuckets) {
  static metrics::Counter counter("test.delta_counter", metrics::Kind::Work);
  static metrics::Gauge gauge("test.delta_gauge", metrics::Kind::Work);
  static metrics::Histogram histogram("test.delta_histogram",
                                      metrics::Kind::Work);
  counter.reset();
  gauge.reset();
  histogram.reset();

  counter.add(10);
  gauge.record(7);
  histogram.observe(3);
  const metrics::Snapshot before = metrics::snapshot(false);

  counter.add(5);
  gauge.record(2);  // below the high-water mark: gauge stays 7
  histogram.observe(3);
  histogram.observe(40);
  const metrics::Snapshot after = metrics::snapshot(false);

  const metrics::Snapshot delta = after.delta(before);
  for (const auto& c : delta.counters) {
    if (c.name == "test.delta_counter") {
      EXPECT_EQ(c.value, 5u);
    }
  }
  for (const auto& g : delta.gauges) {
    if (g.name == "test.delta_gauge") {
      EXPECT_EQ(g.value, 7u);  // current
    }
  }
  for (const auto& h : delta.histograms) {
    if (h.name != "test.delta_histogram") continue;
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.sum, 43u);
    EXPECT_EQ(h.buckets[2], 1u);  // 3 in [2, 4)
    EXPECT_EQ(h.buckets[6], 1u);  // 40 in [32, 64)
  }

  // A reset between snapshots would make counts go backwards; the delta
  // clamps at zero instead of underflowing.
  counter.reset();
  const metrics::Snapshot reset_snap = metrics::snapshot(false);
  const metrics::Snapshot clamped = reset_snap.delta(after);
  for (const auto& c : clamped.counters) {
    if (c.name == "test.delta_counter") {
      EXPECT_EQ(c.value, 0u);
    }
  }
}

// Delta computation under concurrent writers must stay well-defined (and
// TSan-clean): every observation lands in exactly one interval or the
// next, never torn across both.
TEST(Metrics, DeltaUnderConcurrentObserversIsConsistent) {
  static metrics::Counter counter("test.delta_concurrent",
                                  metrics::Kind::Work);
  counter.reset();
  metrics::Snapshot prev = metrics::snapshot(false);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) counter.add();
    });
  }
  std::uint64_t total_delta = 0;
  for (int tick = 0; tick < 50; ++tick) {
    const metrics::Snapshot now = metrics::snapshot(false);
    const metrics::Snapshot delta = now.delta(prev);
    for (const auto& c : delta.counters)
      if (c.name == "test.delta_concurrent") total_delta += c.value;
    prev = now;
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();

  // The summed deltas can never exceed the final absolute value, and the
  // final delta closes the gap exactly.
  const metrics::Snapshot last = metrics::snapshot(false);
  std::uint64_t final_value = 0;
  for (const auto& c : last.counters)
    if (c.name == "test.delta_concurrent") final_value = c.value;
  EXPECT_LE(total_delta, final_value);
  const metrics::Snapshot tail = last.delta(prev);
  for (const auto& c : tail.counters) {
    if (c.name == "test.delta_concurrent") {
      EXPECT_EQ(total_delta + c.value, final_value);
    }
  }
}

TEST(Metrics, JsonDumpCarriesPercentilesForNonEmptyHistograms) {
  static metrics::Histogram histogram("test.json_percentiles",
                                      metrics::Kind::Work);
  histogram.reset();
  for (int i = 0; i < 100; ++i) histogram.observe(10);
  const support::Json doc =
      support::Json::parse(metrics::to_json(metrics::snapshot(false)));
  const support::Json* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const support::Json* entry = hists->find("test.json_percentiles");
  ASSERT_NE(entry, nullptr);
  const support::Json* percentiles = entry->find("percentiles");
  ASSERT_NE(percentiles, nullptr);
  EXPECT_EQ(percentiles->find("p50")->as_number(), 12.0);
  EXPECT_EQ(percentiles->find("p99")->as_number(), 15.92);
  EXPECT_EQ(percentiles->find("max")->as_number(), 16.0);
}

TEST(OpenMetrics, NamesAreSanitizedAndLabelsEscaped) {
  EXPECT_EQ(metrics::openmetrics_name("taint.mft_nodes"),
            "firmres_taint_mft_nodes");
  EXPECT_EQ(metrics::openmetrics_name("phase.fields-us"),
            "firmres_phase_fields_us");
  EXPECT_EQ(metrics::openmetrics_escape_label("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd");
}

TEST(OpenMetrics, ExpositionFormatIsWellFormed) {
  static metrics::Counter counter("test.om_counter", metrics::Kind::Work);
  static metrics::Gauge gauge("test.om_gauge", metrics::Kind::Work);
  static metrics::Histogram histogram("test.om_histogram",
                                      metrics::Kind::Work);
  counter.reset();
  gauge.reset();
  histogram.reset();
  counter.add(3);
  gauge.record(9);
  histogram.observe(5);   // bucket [4, 8) -> cumulative le="7"
  histogram.observe(50);  // bucket [32, 64) -> cumulative le="63"

  const std::string body = metrics::to_openmetrics(metrics::snapshot(false));
  EXPECT_NE(body.find("# TYPE firmres_test_om_counter counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("firmres_test_om_counter_total 3\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE firmres_test_om_gauge gauge\n"),
            std::string::npos);
  EXPECT_NE(body.find("firmres_test_om_gauge 9\n"), std::string::npos);
  // Histogram buckets are cumulative with exact inclusive integer bounds.
  EXPECT_NE(body.find("firmres_test_om_histogram_bucket{le=\"7\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("firmres_test_om_histogram_bucket{le=\"63\"} 2\n"),
            std::string::npos);
  EXPECT_NE(body.find("firmres_test_om_histogram_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(body.find("firmres_test_om_histogram_sum 55\n"),
            std::string::npos);
  EXPECT_NE(body.find("firmres_test_om_histogram_count 2\n"),
            std::string::npos);
  // Terminated exactly once, at the end.
  ASSERT_GE(body.size(), 6u);
  EXPECT_EQ(body.substr(body.size() - 6), "# EOF\n");
  EXPECT_EQ(body.find("# EOF"), body.rfind("# EOF"));

  // Cumulative bucket counts are monotone non-decreasing.
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  const std::string needle = "firmres_test_om_histogram_bucket{le=";
  while ((pos = body.find(needle, pos)) != std::string::npos) {
    const std::size_t space = body.find(' ', pos);
    const std::size_t eol = body.find('\n', space);
    const std::uint64_t value =
        std::stoull(body.substr(space + 1, eol - space - 1));
    EXPECT_GE(value, prev);
    prev = value;
    pos = eol;
  }
}

namespace profile = support::profile;

trace::Event make_span(const char* name, std::uint64_t thread,
                       std::uint64_t start_ns, std::uint64_t duration_ns,
                       std::uint64_t sequence = 0) {
  trace::Event e;
  e.name = name;
  e.category = "test";
  e.thread_id = thread;
  e.start_ns = start_ns;
  e.duration_ns = duration_ns;
  e.sequence = sequence;
  return e;
}

// The fold reconstructs the span tree per thread from intervals: a span
// strictly inside another becomes its child; self time is total minus
// children, clamped at zero.
TEST(Profile, FoldNestsSpansAndComputesSelfTime) {
  std::vector<trace::Event> events;
  events.push_back(make_span("outer", 1, 0, 10000, 0));
  events.push_back(make_span("inner", 1, 2000, 3000, 1));
  events.push_back(make_span("inner", 1, 6000, 1000, 2));
  events.push_back(make_span("other", 2, 0, 5000, 0));

  const std::vector<profile::Entry> entries = profile::fold(events);
  ASSERT_EQ(entries.size(), 3u);  // map-ordered: deterministic
  EXPECT_EQ(entries[0].stack, "other");
  EXPECT_EQ(entries[1].stack, "outer");
  EXPECT_EQ(entries[2].stack, "outer;inner");

  EXPECT_EQ(entries[1].total_ns, 10000u);
  EXPECT_EQ(entries[1].self_ns, 6000u);  // 10000 - (3000 + 1000)
  EXPECT_EQ(entries[1].count, 1u);
  EXPECT_EQ(entries[2].total_ns, 4000u);
  EXPECT_EQ(entries[2].self_ns, 4000u);  // leaves: self == total
  EXPECT_EQ(entries[2].count, 2u);
  EXPECT_EQ(entries[0].self_ns, 5000u);
}

TEST(Profile, CollapsedOutputIsFlamegraphCompatible) {
  std::vector<trace::Event> events;
  events.push_back(make_span("a", 1, 0, 5000, 0));
  events.push_back(make_span("b", 1, 1000, 2000, 1));
  const std::string collapsed =
      profile::to_collapsed(profile::fold(events));
  // One "stack self_us" line per entry, children joined with ';'.
  EXPECT_NE(collapsed.find("a 3\n"), std::string::npos);
  EXPECT_NE(collapsed.find("a;b 2\n"), std::string::npos);
  // Zero-self entries are skipped (nothing to attribute).
  std::vector<trace::Event> wrapper;
  wrapper.push_back(make_span("w", 1, 0, 1000, 0));
  wrapper.push_back(make_span("leaf", 1, 0, 1000, 1));
  const std::string only_leaf =
      profile::to_collapsed(profile::fold(wrapper));
  EXPECT_EQ(only_leaf.find("w 0"), std::string::npos);
  EXPECT_NE(only_leaf.find("w;leaf 1\n"), std::string::npos);
}

TEST(Profile, FoldIsDeterministicAcrossInputOrder) {
  std::vector<trace::Event> events;
  for (int t = 1; t <= 4; ++t) {
    events.push_back(
        make_span("root", static_cast<std::uint64_t>(t), 0, 8000, 0));
    events.push_back(
        make_span("leaf", static_cast<std::uint64_t>(t), 1000, 2000, 1));
  }
  std::vector<trace::Event> reversed(events.rbegin(), events.rend());
  const std::vector<profile::Entry> a = profile::fold(events);
  const std::vector<profile::Entry> b = profile::fold(reversed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stack, b[i].stack);
    EXPECT_EQ(a[i].total_ns, b[i].total_ns);
    EXPECT_EQ(a[i].self_ns, b[i].self_ns);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

TEST(Metrics, TextDumpListsEveryMetricKind) {
  static metrics::Counter counter("test.text_counter", metrics::Kind::Work);
  static metrics::Gauge gauge("test.text_gauge", metrics::Kind::Work);
  static metrics::Histogram histogram("test.text_histogram",
                                      metrics::Kind::Work);
  counter.reset();
  gauge.reset();
  histogram.reset();
  counter.add(3);
  gauge.record(9);
  histogram.observe(5);
  const std::string text = metrics::to_text(metrics::snapshot(false));
  EXPECT_NE(text.find("test.text_counter 3\n"), std::string::npos);
  EXPECT_NE(text.find("test.text_gauge 9\n"), std::string::npos);
  EXPECT_NE(text.find("test.text_histogram.count 1\n"), std::string::npos);
  EXPECT_NE(text.find("test.text_histogram.sum 5\n"), std::string::npos);
  EXPECT_NE(text.find("test.text_histogram.le_2e3 1\n"), std::string::npos);
}

}  // namespace
}  // namespace firmres
