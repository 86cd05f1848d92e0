// Shared helpers for the reproduction benches: corpus setup, pipeline runs,
// and table formatting. Every bench binary prints its paper artifact
// (table/figure rows) to stdout, then runs its google-benchmark timings.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/evaluation.h"
#include "cloud/vuln_hunter.h"
#include "core/corpus_runner.h"
#include "core/pipeline.h"
#include "firmware/synthesizer.h"
#include "support/error.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/observability/metrics.h"
#include "support/thread_pool.h"

namespace firmres::bench {

struct CorpusRun {
  std::vector<fw::FirmwareImage> corpus;
  cloudsim::CloudNetwork net;
  /// Device-id order; index-aligned with `corpus` (ids ascend in Table I).
  std::vector<core::DeviceAnalysis> analyses;
  /// Wall/cpu split and aggregate phase timings of the analysis run.
  core::CorpusResult result;
};

/// Synthesize + analyze the full Table I corpus with the given model.
/// `jobs` as in CorpusRunner::Options (default: all hardware threads); the
/// analyses are deterministic regardless of the job count. `cache` (may be
/// null) wires an incremental AnalysisCache through the pipeline — the
/// warm-vs-cold bench comparison runs through this (docs/CACHING.md).
inline CorpusRun run_corpus(const core::SemanticsModel& model, int jobs = 0,
                            core::AnalysisCache* cache = nullptr) {
  support::set_log_level(support::LogLevel::Warn);
  CorpusRun run;
  run.corpus = fw::synthesize_corpus();
  for (const auto& image : run.corpus) run.net.enroll(image);
  core::Pipeline::Options pipeline_options;
  pipeline_options.cache = cache;
  const core::Pipeline pipeline(model, pipeline_options);
  const core::CorpusRunner runner(pipeline, {.jobs = jobs});
  run.result = runner.run(run.corpus);
  run.analyses = run.result.analyses;
  return run;
}

/// As run_corpus, but over a caller-supplied corpus and full pipeline
/// options — the component-registry benches run the shared-library corpus
/// through this with and without Options::registry (docs/COMPONENTS.md).
inline CorpusRun run_custom_corpus(
    std::vector<fw::FirmwareImage> corpus, const core::SemanticsModel& model,
    const core::Pipeline::Options& pipeline_options, int jobs = 0) {
  support::set_log_level(support::LogLevel::Warn);
  CorpusRun run;
  run.corpus = std::move(corpus);
  for (const auto& image : run.corpus) run.net.enroll(image);
  const core::Pipeline pipeline(model, pipeline_options);
  const core::CorpusRunner runner(pipeline, {.jobs = jobs});
  run.result = runner.run(run.corpus);
  run.analyses = run.result.analyses;
  return run;
}

inline std::string fmt_cluster(const std::optional<int>& c) {
  return c.has_value() ? std::to_string(*c) : "-";
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Consume a `--name <value>` pair from argv before benchmark::Initialize
/// sees it (google-benchmark rejects unknown flags). Empty when absent.
inline std::string take_value_flag(int& argc, char** argv,
                                   std::string_view name) {
  std::string value;
  for (int i = 1; i < argc;) {
    if (std::string_view(argv[i]) == name && i + 1 < argc) {
      value = argv[i + 1];
      for (int k = i; k + 2 < argc; ++k) argv[k] = argv[k + 2];
      argc -= 2;
    } else {
      ++i;
    }
  }
  return value;
}

/// Consume `--json <path>`: the bench-artifact output path.
inline std::string take_json_flag(int& argc, char** argv) {
  return take_value_flag(argc, argv, "--json");
}

/// Write the machine-readable bench artifact tools/check_perf_regression.py
/// compares: per-phase wall seconds, a `total` pseudo-phase carrying the
/// wall/cpu split, and the Work-kind registry counters of the run. `commit`
/// comes from $GITHUB_SHA (CI) or $FIRMRES_COMMIT; "unknown" otherwise.
inline void write_bench_json(const std::string& path,
                             const std::string& bench_name,
                             const core::CorpusResult& result) {
  const char* sha = std::getenv("GITHUB_SHA");
  if (sha == nullptr) sha = std::getenv("FIRMRES_COMMIT");

  support::Json doc{support::JsonObject{}};
  doc.set("format", "firmres-bench");
  doc.set("bench", bench_name);
  doc.set("commit", sha != nullptr ? sha : "unknown");

  support::Json config{support::JsonObject{}};
  config.set("hardware_threads",
             static_cast<double>(support::ThreadPool::default_parallelism()));
  config.set("devices", static_cast<double>(result.analyses.size()));
  doc.set("config", std::move(config));

  support::Json phases{support::JsonObject{}};
  for (const core::Phase& phase : core::kPhases) {
    support::Json p{support::JsonObject{}};
    p.set("wall_s", result.aggregate.*phase.slot);
    phases.set(phase.name, std::move(p));
  }
  support::Json total{support::JsonObject{}};
  total.set("wall_s", result.wall_s);
  total.set("cpu_s", result.cpu_s);
  phases.set("total", std::move(total));
  doc.set("phases", std::move(phases));

  // Work-kind metrics are deterministic across job counts, so a baseline
  // mismatch here means the analysis itself changed, not the scheduler.
  const support::metrics::Snapshot snap = support::metrics::snapshot(false);
  support::Json registry{support::JsonObject{}};
  for (const auto& c : snap.counters)
    registry.set(c.name, static_cast<double>(c.value));
  for (const auto& g : snap.gauges)
    registry.set(g.name, static_cast<double>(g.value));
  for (const auto& h : snap.histograms)
    registry.set(h.name + ".sum", static_cast<double>(h.sum));
  doc.set("registry_metrics", std::move(registry));

  // Latency distributions (Runtime-kind included): raw power-of-two
  // buckets plus precomputed percentiles, so the regression gate can
  // bound tail latency (--only-percentile phase.fields_us:p99). The gate
  // recomputes percentiles from the buckets; the precomputed values are
  // for human diffing.
  const support::metrics::Snapshot full = support::metrics::snapshot(true);
  support::Json histograms{support::JsonObject{}};
  for (const auto& h : full.histograms) {
    if (h.count == 0) continue;
    support::Json entry{support::JsonObject{}};
    entry.set("count", static_cast<double>(h.count));
    entry.set("sum", static_cast<double>(h.sum));
    support::Json buckets{support::JsonObject{}};
    for (int i = 0; i < support::metrics::kHistogramBuckets; ++i) {
      const std::uint64_t n = h.buckets[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      const std::string bound =
          i == support::metrics::kHistogramBuckets - 1
              ? "inf"
              : std::to_string(std::uint64_t{1} << i);
      buckets.set(bound, static_cast<double>(n));
    }
    entry.set("buckets", std::move(buckets));
    entry.set("p50", support::metrics::histogram_percentile(h, 0.50));
    entry.set("p90", support::metrics::histogram_percentile(h, 0.90));
    entry.set("p99", support::metrics::histogram_percentile(h, 0.99));
    entry.set("max", support::metrics::histogram_percentile(h, 1.0));
    histograms.set(h.name, std::move(entry));
  }
  doc.set("histograms", std::move(histograms));

  const std::string body = doc.dump(true);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw support::ParseError("cannot write bench artifact " + path);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace firmres::bench
