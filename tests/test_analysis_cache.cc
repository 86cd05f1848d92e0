// Differential correctness harness for the incremental analysis cache
// (docs/CACHING.md). The cache's whole contract is "invisible except for
// speed": the timings-omitted report and the decision-event log must be
// byte-identical whether a run was cold, warm, cross-process shared, or
// scheduled across any --jobs count. These tests pin that contract, the
// robustness of the on-disk store (truncated / bit-flipped / version-skewed
// / concurrently-written entries fall back to recompute, never crash), and
// the incrementality property itself: mutate one function and only that
// function and its recorded dependents recompute.
#include "core/analysis_cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/corpus_runner.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "firmware/synthesizer.h"
#include "ir/program.h"
#include "support/file.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/observability/events.h"
#include "support/observability/metrics.h"
#include "support/observability/trace.h"
#include "support/rng.h"
#include "support/strings.h"

namespace firmres {
namespace {

namespace fsys = std::filesystem;
namespace events = support::events;
namespace metrics = support::metrics;

class TempDir {
 public:
  TempDir() {
    path_ = fsys::temp_directory_path() /
            ("firmres-cache-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    fsys::create_directories(path_);
  }
  ~TempDir() { fsys::remove_all(path_); }
  const fsys::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  fsys::path path_;
};

/// Devices 3, 8 and 13 use indirect dispatch, so the corpus exercises the
/// devirtualization events the warm path has to re-emit from cache.
std::vector<fw::FirmwareImage> cache_corpus() {
  std::vector<fw::FirmwareImage> corpus;
  for (const int id : {2, 3, 8, 13})
    corpus.push_back(fw::synthesize(fw::profile_by_id(id)));
  return corpus;
}

/// Concatenated timings-omitted reports — the byte-identity oracle.
std::string run_reports(const std::vector<fw::FirmwareImage>& corpus,
                        int jobs, core::AnalysisCache* cache) {
  const core::KeywordModel model;
  core::Pipeline::Options pipeline_options;
  pipeline_options.cache = cache;
  const core::Pipeline pipeline(model, pipeline_options);
  const core::CorpusRunner runner(pipeline, {.jobs = jobs});
  const core::CorpusResult result = runner.run(corpus);
  EXPECT_TRUE(result.failures.empty());
  std::string out;
  for (const core::DeviceAnalysis& a : result.analyses)
    out += core::analysis_to_json(a, /*include_timings=*/false).dump(true);
  return out;
}

std::string run_events(const std::vector<fw::FirmwareImage>& corpus,
                       int jobs, core::AnalysisCache* cache) {
  events::clear();
  events::set_enabled(true);
  (void)run_reports(corpus, jobs, cache);
  events::set_enabled(false);
  const std::string jsonl = events::to_jsonl(events::collect());
  events::clear();
  return jsonl;
}

std::string analyze_one(const fw::FirmwareImage& image,
                        core::AnalysisCache* cache) {
  const core::KeywordModel model;
  core::Pipeline::Options pipeline_options;
  pipeline_options.cache = cache;
  const core::Pipeline pipeline(model, pipeline_options);
  return core::analysis_to_json(pipeline.analyze(image),
                                /*include_timings=*/false)
      .dump(true);
}

std::vector<fsys::path> entry_files(const fsys::path& dir) {
  std::vector<fsys::path> files;
  for (const auto& e : fsys::directory_iterator(dir))
    if (e.path().extension() == ".json") files.push_back(e.path());
  return files;
}

std::string slurp(const fsys::path& p) {
  return support::read_file(p.string()).value_or("");
}

void spit(const fsys::path& p, const std::string& content) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << content;
}

// ---------------------------------------------------------------------------
// Differential golden suite: cold vs warm vs cross-jobs
// ---------------------------------------------------------------------------

TEST(CacheDifferential, ColdRunMatchesUncachedAndWarmMatchesCold) {
  const auto corpus = cache_corpus();
  const std::string uncached = run_reports(corpus, 1, nullptr);

  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  const std::string cold = run_reports(corpus, 1, &cache);
  EXPECT_EQ(cold, uncached) << "a cold cache must not perturb the report";

  // Even the cold run sees ident hits: devices ship identical copies of
  // the common utility executables, so §IV-A verdicts dedup across the
  // corpus. The analysis tiers are genuinely cold.
  const core::AnalysisCache::Stats after_cold = cache.stats();
  EXPECT_GT(after_cold.ident_misses, 0u);
  EXPECT_EQ(after_cold.fn_hits, 0u);
  EXPECT_GT(after_cold.stores, 0u);
  EXPECT_EQ(after_cold.program_misses, corpus.size());

  const std::string warm = run_reports(corpus, 1, &cache);
  EXPECT_EQ(warm, cold) << "warm report must be byte-identical to cold";

  // The acceptance bar: >= 90% per-function hit rate on the warm pass. An
  // unchanged corpus actually serves everything from the program tier,
  // which credits every delivery function — 100%.
  const core::AnalysisCache::Stats after_warm = cache.stats();
  const std::uint64_t hits = after_warm.fn_hits - after_cold.fn_hits;
  const std::uint64_t misses = after_warm.fn_misses - after_cold.fn_misses;
  ASSERT_GT(hits, 0u);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.9);
  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(after_warm.program_hits, corpus.size());
  EXPECT_EQ(after_warm.load_errors, 0u);
}

TEST(CacheDifferential, WarmReportByteIdenticalAcrossJobCounts) {
  const auto corpus = cache_corpus();
  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  const std::string cold = run_reports(corpus, 1, &cache);
  EXPECT_EQ(run_reports(corpus, 1, &cache), cold);
  EXPECT_EQ(run_reports(corpus, 8, &cache), cold);
}

TEST(CacheDifferential, ColdRunAtEightJobsSeedsTheSameStore) {
  const auto corpus = cache_corpus();
  const std::string uncached = run_reports(corpus, 1, nullptr);

  TempDir dir;
  core::AnalysisCache parallel_cold({.dir = dir.str()});
  EXPECT_EQ(run_reports(corpus, 8, &parallel_cold), uncached);

  // A fresh instance over the same directory serves a sequential warm run
  // byte-identically — the store's content does not depend on scheduling.
  core::AnalysisCache warm({.dir = dir.str()});
  EXPECT_EQ(run_reports(corpus, 1, &warm), uncached);
  EXPECT_EQ(warm.stats().program_hits, corpus.size());
}

TEST(CacheDifferential, EventLogByteIdenticalColdVsWarmAtAnyJobs) {
  const auto corpus = cache_corpus();
  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});

  const std::string uncached = run_events(corpus, 1, nullptr);
  // The log must cover the chain the warm path rehydrates from cache:
  // devirtualization folds, §IV-B terminations, §IV-D verdicts.
  EXPECT_NE(uncached.find("devirtualized CALLIND"), std::string::npos);
  EXPECT_NE(uncached.find("taint walk terminated"), std::string::npos);
  EXPECT_NE(uncached.find("MFT dropped: lan-address"), std::string::npos);

  EXPECT_EQ(run_events(corpus, 1, &cache), uncached);   // cold
  EXPECT_EQ(run_events(corpus, 1, &cache), uncached);   // warm
  EXPECT_EQ(run_events(corpus, 8, &cache), uncached);   // warm, parallel
}

TEST(CacheDifferential, CountersFlowToTheMetricsRegistry) {
  const auto corpus = cache_corpus();
  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  (void)run_reports(corpus, 1, &cache);
  (void)run_reports(corpus, 1, &cache);

  const metrics::Snapshot snap = metrics::snapshot(false);
  const auto counter = [&](const char* name) -> std::uint64_t {
    for (const auto& c : snap.counters)
      if (c.name == name) return c.value;
    ADD_FAILURE() << "missing registry counter " << name;
    return 0;
  };
  // Work-kind (deterministic dump) so --metrics-out picks them up.
  EXPECT_GT(counter("cache.ident_misses"), 0u);
  EXPECT_GT(counter("cache.ident_hits"), 0u);
  EXPECT_GT(counter("cache.program_hits"), 0u);
  EXPECT_GT(counter("cache.fn_hits"), 0u);
  EXPECT_GT(counter("cache.stores"), 0u);
}

// ---------------------------------------------------------------------------
// Store robustness: damaged entries are misses, never crashes
// ---------------------------------------------------------------------------

TEST(CacheDifferential, StoresRunInsideACacheStoreSpan) {
  // A profile separates the stores from §IV-C/D work: each cold program
  // store runs in a cache.store span inside phase.reconstruct; a warm run
  // stores nothing.
  namespace trace = support::trace;
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(2));
  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  const auto traced_spans = [&] {
    trace::clear();
    trace::set_enabled(true);
    (void)analyze_one(image, &cache);
    trace::set_enabled(false);
    return trace::collect();
  };
  const std::vector<trace::Event> cold = traced_spans();
  const trace::Event* phase = nullptr;
  int stores = 0;
  for (const trace::Event& e : cold) {
    if (e.name == "phase.reconstruct") phase = &e;
    if (e.name != "cache.store") continue;
    ++stores;
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(e.device_id, 2);
    EXPECT_GE(e.start_ns, phase->start_ns);
    EXPECT_LE(e.start_ns + e.duration_ns,
              phase->start_ns + phase->duration_ns);
  }
  EXPECT_EQ(stores, 1);  // one device-cloud program
  for (const trace::Event& e : traced_spans())
    EXPECT_NE(e.name, "cache.store");
}

TEST(CacheRobustness, TruncatedEntriesFallBackToRecompute) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(3));
  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  const std::string cold = analyze_one(image, &cache);

  const auto files = entry_files(dir.path());
  ASSERT_FALSE(files.empty());
  for (const fsys::path& f : files) {
    const std::string content = slurp(f);
    spit(f, content.substr(0, content.size() / 2));
  }

  core::AnalysisCache reopened({.dir = dir.str()});
  EXPECT_EQ(analyze_one(image, &reopened), cold);
  EXPECT_GT(reopened.stats().load_errors, 0u);
  EXPECT_EQ(reopened.stats().program_hits, 0u);

  // The recompute re-stored healthy entries: the next run is warm again.
  core::AnalysisCache healed({.dir = dir.str()});
  EXPECT_EQ(analyze_one(image, &healed), cold);
  EXPECT_EQ(healed.stats().load_errors, 0u);
  EXPECT_EQ(healed.stats().program_hits, 1u);
}

TEST(CacheRobustness, BitFlippedEntriesAreRejectedByThePayloadHash) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(2));
  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  const std::string cold = analyze_one(image, &cache);

  const auto files = entry_files(dir.path());
  ASSERT_FALSE(files.empty());
  for (const fsys::path& f : files) {
    std::string content = slurp(f);
    content[content.size() / 2] ^= 0x01;  // single bit, mid-payload
    spit(f, content);
  }

  core::AnalysisCache reopened({.dir = dir.str()});
  EXPECT_EQ(analyze_one(image, &reopened), cold);
  EXPECT_GT(reopened.stats().load_errors, 0u);
}

TEST(CacheRobustness, VersionSkewedEntriesAreMisses) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(2));
  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  const std::string cold = analyze_one(image, &cache);

  for (const fsys::path& f : entry_files(dir.path())) {
    support::Json doc = support::Json::parse(slurp(f));
    doc.set("version", 999);
    spit(f, doc.dump(false));
  }

  core::AnalysisCache reopened({.dir = dir.str()});
  EXPECT_EQ(analyze_one(image, &reopened), cold);
  EXPECT_GT(reopened.stats().load_errors, 0u);
}

TEST(CacheRobustness, ForeignFilesInTheDirectoryAreHarmless) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(2));
  TempDir dir;
  // Junk that predates the cache: wrong names, a stale writer temp, an
  // empty file squatting on a plausible entry name.
  spit(dir.path() / "README.txt", "not a cache entry");
  spit(dir.path() / ".tmp-fn-0000000000000000-1", "{\"half\":");
  spit(dir.path() / "fn-zzzzzzzzzzzzzzzz.json", "{}");
  spit(dir.path() / "program-0123456789abcdef.json", "");

  core::AnalysisCache cache({.dir = dir.str()});
  const std::string cold = analyze_one(image, &cache);
  EXPECT_EQ(cold, analyze_one(image, nullptr));
  EXPECT_EQ(analyze_one(image, &cache), cold);
  // function_entries skips everything that is not a loadable fn entry.
  for (const auto& [key, entry] : cache.function_entries()) {
    (void)key;
    EXPECT_FALSE(entry.fn.empty());
    EXPECT_FALSE(entry.deps.empty());
  }
}

TEST(CacheRobustness, ConcurrentWritersSharingADirectoryStayCorrect) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(3));
  const std::string expected = analyze_one(image, nullptr);

  TempDir dir;
  // Four instances race cold-population of the same store; atomic
  // temp+rename writes mean readers only ever see whole entries.
  std::vector<std::string> got(4);
  {
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&, t] {
        core::AnalysisCache mine({.dir = dir.str()});
        got[static_cast<std::size_t>(t)] = analyze_one(image, &mine);
      });
    }
    for (std::thread& w : writers) w.join();
  }
  for (const std::string& g : got) EXPECT_EQ(g, expected);

  core::AnalysisCache warm({.dir = dir.str()});
  EXPECT_EQ(analyze_one(image, &warm), expected);
  EXPECT_EQ(warm.stats().program_hits, 1u);
  EXPECT_EQ(warm.stats().load_errors, 0u);
}

TEST(CacheRobustness, EvictionKeepsTheStoreBoundedAndCorrect) {
  const auto corpus = cache_corpus();
  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str(), .max_entries = 8});
  const std::string cold = run_reports(corpus, 1, &cache);
  EXPECT_EQ(cold, run_reports(corpus, 1, nullptr));
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(entry_files(dir.path()).size(), 8u);
  // With most entries evicted, a rerun is partially cold — but still
  // byte-identical.
  EXPECT_EQ(run_reports(corpus, 1, &cache), cold);
}

TEST(CacheRobustness, DeeplyNestedEntriesAreLoadErrors) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(3));
  const std::string uncached = analyze_one(image, nullptr);
  TempDir dir;
  {
    core::AnalysisCache cache({.dir = dir.str()});
    ASSERT_EQ(analyze_one(image, &cache), uncached);
  }
  // Nesting this deep overflowed the stack of the recursive JSON parser.
  std::size_t overwritten = 0;
  for (const fsys::path& f : entry_files(dir.path())) {
    if (f.filename().string().rfind("ident-", 0) != 0) continue;
    spit(f, std::string(300000, '['));
    ++overwritten;
    break;
  }
  ASSERT_EQ(overwritten, 1u);

  core::AnalysisCache reopened({.dir = dir.str()});
  EXPECT_EQ(analyze_one(image, &reopened), uncached);
  EXPECT_EQ(reopened.stats().load_errors, 1u);
}

// ---------------------------------------------------------------------------
// Store path: counted eviction and the entry format
// ---------------------------------------------------------------------------

TEST(CacheStore, AnInstanceOpenedAtTheCapEvictsOnItsFirstStore) {
  TempDir dir;
  {
    core::AnalysisCache filler({.dir = dir.str(), .max_entries = 8});
    for (std::uint64_t key = 1; key <= 8; ++key)
      filler.store_ident(key, key % 2 == 0);
    EXPECT_EQ(filler.stats().evictions, 0u);
  }
  ASSERT_EQ(entry_files(dir.path()).size(), 8u);

  // The count is taken at open: the first store already passes the cap.
  core::AnalysisCache reopened({.dir = dir.str(), .max_entries = 8});
  reopened.store_ident(9, true);
  EXPECT_EQ(reopened.stats().eviction_scans, 1u);
  EXPECT_EQ(reopened.stats().evictions, 1u);
  EXPECT_EQ(entry_files(dir.path()).size(), 8u);
}

TEST(CacheStore, StoresBelowTheCapScanNothing) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(3));
  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  (void)analyze_one(image, &cache);
  ASSERT_GT(cache.stats().stores, 0u);
  EXPECT_EQ(cache.stats().eviction_scans, 0u);

  // Overwrites of one key over-count: the scan they bring on evicts
  // nothing and resets the count to the one file on disk.
  TempDir small;
  core::AnalysisCache capped({.dir = small.str(), .max_entries = 2});
  for (int i = 0; i < 3; ++i) capped.store_ident(7, true);
  EXPECT_EQ(capped.stats().eviction_scans, 1u);
  EXPECT_EQ(capped.stats().evictions, 0u);
  capped.store_ident(7, true);
  EXPECT_EQ(capped.stats().eviction_scans, 1u);
  EXPECT_EQ(entry_files(small.path()).size(), 1u);
}

TEST(CacheStore, EntryBytesEqualTheDomBuiltEnvelope) {
  const auto envelope = [](const char* kind, const std::string& key,
                           const support::Json& payload) {
    return support::Json(support::JsonObject{
                             {"format", support::Json("firmres-cache")},
                             {"version", support::Json(1)},
                             {"kind", support::Json(kind)},
                             {"key", support::Json(key)},
                             {"payload", payload},
                             {"payload_hash",
                              support::Json(support::format(
                                  "0x%016llx",
                                  static_cast<unsigned long long>(
                                      support::fnv1a64(
                                          payload.dump(false)))))},
                         })
        .dump(false);
  };
  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  cache.store_ident(0x0123456789abcdefULL, true);
  EXPECT_EQ(slurp(dir.path() / "ident-0123456789abcdef.json"),
            envelope("ident", "0x0123456789abcdef",
                     support::Json(support::JsonObject{
                         {"is_device_cloud", support::Json(true)}})));

  // A sample fn payload with strings that need escaping.
  core::CachedFunctionEntry entry;
  entry.fn = "send_\"quoted\"\\path\n\t\x01 \xc3\xa9";
  entry.deps.push_back({entry.fn, 1, 2, 3, 0xffffffffffffffffULL});
  cache.store_function(42, entry);
  const std::string fn_bytes = slurp(dir.path() / "fn-000000000000002a.json");
  const support::Json fn_payload = *support::Json::parse(fn_bytes).find("payload");
  EXPECT_EQ(fn_payload.find("fn")->as_string(), entry.fn);
  EXPECT_EQ(fn_bytes, envelope("fn", "0x000000000000002a", fn_payload));

  // Every entry a real analysis writes, in all three tiers.
  (void)analyze_one(fw::synthesize(fw::profile_by_id(8)), &cache);
  std::set<std::string> kinds;
  for (const fsys::path& f : entry_files(dir.path())) {
    const std::string bytes = slurp(f);
    const support::Json doc = support::Json::parse(bytes);
    const std::string kind = doc.find("kind")->as_string();
    kinds.insert(kind);
    EXPECT_EQ(bytes, envelope(kind.c_str(), doc.find("key")->as_string(),
                              *doc.find("payload")))
        << f;
  }
  EXPECT_EQ(kinds, (std::set<std::string>{"fn", "ident", "program"}));
}

// ---------------------------------------------------------------------------
// Randomized incrementality property
// ---------------------------------------------------------------------------

/// Append a dead self-copy op to `fn` — the smallest IR content change.
/// It perturbs no other function's value flow, so the recorded-dependency
/// check should invalidate exactly the entries that name `fn` as a dep.
void mutate_function(ir::Program& prog, ir::Function& fn,
                     std::uint64_t address) {
  ASSERT_FALSE(fn.blocks().empty());
  std::optional<ir::VarNode> v;
  if (!fn.params().empty()) {
    v = fn.params().front();
  } else {
    for (const ir::PcodeOp* op : fn.ops_in_order()) {
      if (op->output.has_value()) {
        v = *op->output;
        break;
      }
      if (!op->inputs.empty()) {
        v = op->inputs.front();
        break;
      }
    }
  }
  ASSERT_TRUE(v.has_value()) << fn.name() << " has no varnode to copy";
  ir::PcodeOp op;
  op.address = address;
  op.opcode = ir::OpCode::Copy;
  op.output = *v;
  op.inputs = prog.operand_list({*v});
  fn.blocks().front().ops.push_back(op);
}

TEST(CacheIncrementality, MutatingOneFunctionRecomputesOnlyItsDependents) {
  support::Rng rng(0xF1A57C0DEULL);
  for (const int device : {3, 8}) {
    for (int trial = 0; trial < 3; ++trial) {
      TempDir dir;
      core::AnalysisCache cache({.dir = dir.str()});
      const fw::FirmwareImage base =
          fw::synthesize(fw::profile_by_id(device));
      (void)analyze_one(base, &cache);

      const auto entries = cache.function_entries();
      ASSERT_FALSE(entries.empty());

      // Mutate one pseudo-random local function of a fresh, otherwise
      // identical synthesis (the synthesizer is seed-deterministic).
      fw::FirmwareImage mutated = fw::synthesize(fw::profile_by_id(device));
      ir::Program* prog = nullptr;
      for (fw::FirmwareFile& f : mutated.files)
        if (f.path == mutated.truth.device_cloud_executable)
          prog = f.program.get();
      ASSERT_NE(prog, nullptr);
      const std::vector<ir::Function*> locals = prog->local_functions();
      ASSERT_FALSE(locals.empty());
      ir::Function* victim = locals[static_cast<std::size_t>(rng.uniform(
          0, static_cast<std::int64_t>(locals.size()) - 1))];
      mutate_function(*prog, *victim,
                      0xCAFE000000ULL + static_cast<std::uint64_t>(trial));

      // Expected invalidations, computed from the recorded deps alone.
      std::size_t expected_misses = 0;
      for (const auto& [key, entry] : entries) {
        (void)key;
        for (const core::CachedFunctionEntry::Dep& dep : entry.deps) {
          if (dep.fn == victim->name()) {
            ++expected_misses;
            break;
          }
        }
      }

      const std::string reference = analyze_one(mutated, nullptr);
      const core::AnalysisCache::Stats before = cache.stats();
      const std::string warm = analyze_one(mutated, &cache);
      const core::AnalysisCache::Stats after = cache.stats();

      EXPECT_EQ(warm, reference)
          << "device " << device << " trial " << trial << " victim "
          << victim->name();
      // The program tier must miss (the program hash changed)…
      EXPECT_EQ(after.program_hits, before.program_hits);
      // …and the fn tier recomputes exactly the dependents of the victim.
      EXPECT_EQ(after.fn_misses - before.fn_misses, expected_misses)
          << "victim " << victim->name();
      EXPECT_EQ(after.fn_hits - before.fn_hits,
                entries.size() - expected_misses)
          << "victim " << victim->name();
    }
  }
}

}  // namespace
}  // namespace firmres
