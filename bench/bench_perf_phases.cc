// §V-E — "Performance of FIRMRES": per-device wall-clock and per-phase
// breakdown, side by side with the paper's measurements.
//
// Paper (Ghidra on real MIPS/ARM binaries, i5/8 GB): 154 s – 1472 s per
// firmware; phase split 37.67 / 43.83 / 3.71 / 9.96 / 4.81 %. Our substrate
// analyzes pre-lifted IR, so absolute times are ms-scale and the split
// shifts toward the reconstruction stages (see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>

#include "analysis/pointsto/pointsto.h"
#include "analysis/valueflow/valueflow.h"
#include "bench_util.h"
#include "core/analysis_cache.h"
#include "core/sdk_registry.h"
#include "support/observability/metrics.h"
#include "support/strings.h"

namespace {

using namespace firmres;

std::uint64_t histogram_sum(const support::metrics::Snapshot& snap,
                            std::string_view name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return h.sum;
  return 0;
}

std::uint64_t counter_value(const support::metrics::Snapshot& snap,
                            std::string_view name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

void print_perf() {
  const core::KeywordModel model;
  // The phase split below is re-read from the metrics registry
  // (phase.*_us latency histograms, docs/OBSERVABILITY.md), so the
  // registry must start empty for this section.
  support::metrics::reset_all();
  const bench::CorpusRun run = bench::run_corpus(model);
  const support::metrics::Snapshot snap = support::metrics::snapshot(true);

  std::printf("PERFORMANCE OF FIRMRES (per firmware image)\n");
  bench::print_rule();
  std::printf("%-6s %-10s |", "Device", "total(ms)");
  for (const core::Phase& phase : core::kPhases)
    std::printf(" %-11s", phase.name);
  std::printf("\n");
  bench::print_rule();
  double min_t = 1e9, max_t = 0;
  for (const auto& a : run.analyses) {
    if (a.device_cloud_executable.empty()) continue;
    const auto& t = a.timings;
    min_t = std::min(min_t, t.total_s());
    max_t = std::max(max_t, t.total_s());
    std::printf("%-6d %-10.2f |", a.device_id, 1e3 * t.total_s());
    for (const core::Phase& phase : core::kPhases)
      std::printf(" %-11.2f", 1e3 * (t.*phase.slot));
    std::printf("\n");
  }
  bench::print_rule();
  // Phase sums come from the registry's phase.*_us histograms rather than
  // re-summing PhaseTimings.
  double total_us = 0;
  for (const core::Phase& phase : core::kPhases)
    total_us += static_cast<double>(histogram_sum(snap, phase.histogram));
  std::printf(
      "fastest firmware: %.2f ms   slowest: %.2f ms   (paper: 154 s / 1472 "
      "s on Ghidra-lifted binaries)\n",
      1e3 * min_t, 1e3 * max_t);
  std::printf("phase split (registry):");
  for (const core::Phase& phase : core::kPhases) {
    const double us = static_cast<double>(histogram_sum(snap, phase.histogram));
    std::printf("  %s %.2f%%", phase.name, 100 * us / total_us);
  }
  std::printf(
      "\nphase split (paper):     pinpoint 37.67%%  fields 43.83%%  semantics "
      "3.71%%  concat 9.96%%  check 4.81%%\n");
  // Tail behavior across devices, straight from the registry's latency
  // buckets — the distributions the serve-mode heartbeat and the
  // --only-percentile regression gate watch (docs/OBSERVABILITY.md).
  for (const auto& h : snap.histograms) {
    if (h.count == 0 || h.name.rfind("phase.", 0) != 0) continue;
    std::printf(
        "latency %-18s p50 %8.1f us  p90 %8.1f us  p99 %8.1f us  max %8.1f "
        "us  (%llu devices)\n",
        h.name.c_str() + 6, support::metrics::histogram_percentile(h, 0.50),
        support::metrics::histogram_percentile(h, 0.90),
        support::metrics::histogram_percentile(h, 0.99),
        support::metrics::histogram_percentile(h, 1.0),
        static_cast<unsigned long long>(h.count));
  }
  std::printf(
      "work counters (registry): %llu taint steps, %llu messages, %llu "
      "flaw alarms across %llu devices\n\n",
      static_cast<unsigned long long>(counter_value(snap, "taint.steps")),
      static_cast<unsigned long long>(
          counter_value(snap, "pipeline.messages_reconstructed")),
      static_cast<unsigned long long>(
          counter_value(snap, "pipeline.flaw_alarms")),
      static_cast<unsigned long long>(
          counter_value(snap, "pipeline.devices_analyzed")));
}

// Shared-library dedup: the SDK corpus links the same vendor-SDK functions
// into every image; with the component registry their value-flow solves are
// substituted by certified summaries instead of re-run per device
// (docs/COMPONENTS.md). Reports are byte-identical either way (minus the
// components blocks); only the analyze phases should get faster.
void print_sdk_dedup(const std::string& baseline_json,
                     const std::string& registry_json) {
  const core::KeywordModel model;
  const analysis::components::LibraryRegistry registry =
      core::build_sdk_registry();

  support::metrics::reset_all();
  const bench::CorpusRun plain = bench::run_custom_corpus(
      fw::synthesize_sdk_corpus(), model, core::Pipeline::Options{});
  if (!baseline_json.empty())
    bench::write_bench_json(baseline_json, "bench_perf_phases_sdk",
                            plain.result);

  support::metrics::reset_all();
  core::Pipeline::Options with_registry;
  with_registry.registry = &registry;
  const bench::CorpusRun matched = bench::run_custom_corpus(
      fw::synthesize_sdk_corpus(), model, with_registry);
  if (!registry_json.empty())
    bench::write_bench_json(registry_json, "bench_perf_phases_sdk",
                            matched.result);
  const support::metrics::Snapshot snap = support::metrics::snapshot(false);

  std::printf("SHARED-LIBRARY DEDUP (%zu SDK-linked images, jobs=all)\n",
              plain.corpus.size());
  bench::print_rule();
  std::printf("%-22s %-14s %-14s %-10s\n", "", "no registry", "registry",
              "ratio");
  bench::print_rule();
  const auto row = [](const char* name, double base_s, double cur_s) {
    std::printf("%-22s %-14.2f %-14.2f %-10s\n", name, 1e3 * base_s,
                1e3 * cur_s,
                base_s <= 0.0
                    ? "-"
                    : support::format("%.2fx", base_s / cur_s).c_str());
  };
  row("pinpoint (ms)", plain.result.aggregate.pinpoint_s,
      matched.result.aggregate.pinpoint_s);
  row("fields (ms)", plain.result.aggregate.fields_s,
      matched.result.aggregate.fields_s);
  row("analyze total (ms)",
      plain.result.aggregate.pinpoint_s + plain.result.aggregate.fields_s,
      matched.result.aggregate.pinpoint_s +
          matched.result.aggregate.fields_s);
  bench::print_rule();
  std::printf(
      "%llu function solves substituted from the registry across the "
      "corpus\n\n",
      static_cast<unsigned long long>(
          counter_value(snap, "valueflow.substituted_functions")));
}

// Memory def-use visibility: the memory-staging corpus routes message
// fields through global/heap cells that separate writer functions fill
// (docs/POINTSTO.md). The per-device columns come from the report's
// memory_flow block; the work counters re-read the registry's pointsto.*
// Work metrics, so the two sources must agree.
void print_memory_flow() {
  const core::KeywordModel model;
  support::metrics::reset_all();
  const bench::CorpusRun run = bench::run_custom_corpus(
      fw::synthesize_memory_corpus(), model, core::Pipeline::Options{});
  const support::metrics::Snapshot snap = support::metrics::snapshot(false);

  std::printf("MEMORY FLOW (points-to over %zu memory-staging images)\n",
              run.corpus.size());
  bench::print_rule();
  std::printf("%-6s %-8s %-10s %-11s %-8s %-13s %-9s\n", "Device", "loads",
              "resolved", "via-stores", "stores", "never-loaded", "mem-term");
  bench::print_rule();
  for (const auto& a : run.analyses) {
    if (a.device_cloud_executable.empty()) continue;
    const auto& mf = a.memory_flow;
    std::printf("%-6d %-8llu %-10llu %-11llu %-8llu %-13llu %-9d\n",
                a.device_id, static_cast<unsigned long long>(mf.loads_total),
                static_cast<unsigned long long>(mf.loads_resolved),
                static_cast<unsigned long long>(mf.loads_with_stores),
                static_cast<unsigned long long>(mf.stores_total),
                static_cast<unsigned long long>(mf.stores_never_loaded),
                a.memory_terminations);
  }
  bench::print_rule();
  std::printf(
      "work counters (registry): %llu points-to solves, %llu/%llu loads "
      "resolved, %llu stores indexed\n\n",
      static_cast<unsigned long long>(counter_value(snap, "pointsto.solves")),
      static_cast<unsigned long long>(
          counter_value(snap, "pointsto.loads_resolved")),
      static_cast<unsigned long long>(
          counter_value(snap, "pointsto.loads_total")),
      static_cast<unsigned long long>(
          counter_value(snap, "pointsto.stores_total")));
}

// Corpus-level parallel fan-out: wall clock vs. CPU time per job count.
// The analyses are bit-identical across job counts (CorpusRunner's
// determinism guarantee); only the wall clock should move. Speedup is
// bounded by the machine — on a single hardware thread the jobs>1 rows
// show overhead, not gains.
void print_parallel_speedup() {
  const core::KeywordModel model;
  const auto corpus = fw::synthesize_corpus();
  const core::Pipeline pipeline(model);

  std::printf("PARALLEL CORPUS ANALYSIS (%zu images, %zu hardware threads)\n",
              corpus.size(), support::ThreadPool::default_parallelism());
  bench::print_rule();
  std::printf("%-6s %-12s %-12s %-10s %-12s\n", "jobs", "wall(ms)", "cpu(ms)",
              "cpu/wall", "vs jobs=1");
  bench::print_rule();
  double wall1 = 0.0;
  for (const int jobs : {1, 2, 4}) {
    const core::CorpusRunner runner(pipeline, {.jobs = jobs});
    const core::CorpusResult result = runner.run(corpus);
    if (jobs == 1) wall1 = result.wall_s;
    std::printf("%-6d %-12.2f %-12.2f %-10.2f %-12s\n", jobs,
                1e3 * result.wall_s, 1e3 * result.cpu_s, result.speedup(),
                support::format("%.2fx", wall1 / result.wall_s).c_str());
  }
  bench::print_rule();
  std::putchar('\n');
}

void BM_PhasePinpoint(benchmark::State& state) {
  const auto image = fw::synthesize(fw::profile_by_id(14));
  const core::ExecutableIdentifier identifier;
  const auto execs = image.executables();
  for (auto _ : state) {
    // The pipeline's Phase 1: each executable's context solve, then §IV-A.
    for (const ir::Program* p : execs) {
      const analysis::pointsto::PointsTo pt(*p);
      const analysis::ValueFlow vf(*p, nullptr, {.pointsto = &pt});
      const analysis::CallGraph cg(*p, vf);
      benchmark::DoNotOptimize(identifier.analyze(*p, cg));
    }
  }
}
BENCHMARK(BM_PhasePinpoint);

void BM_PhaseTaint(benchmark::State& state) {
  const auto image = fw::synthesize(fw::profile_by_id(14));
  const auto* exec = image.file(image.truth.device_cloud_executable);
  const analysis::CallGraph cg(*exec->program);
  const core::MftBuilder builder(*exec->program, cg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build_all());
  }
}
BENCHMARK(BM_PhaseTaint);

void BM_PhaseReconstruct(benchmark::State& state) {
  static const core::KeywordModel model;
  const auto image = fw::synthesize(fw::profile_by_id(14));
  const auto* exec = image.file(image.truth.device_cloud_executable);
  const analysis::CallGraph cg(*exec->program);
  const core::MftBuilder builder(*exec->program, cg);
  const auto mfts = builder.build_all();
  const core::Reconstructor reconstructor(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reconstructor.reconstruct(mfts, exec->path));
  }
}
BENCHMARK(BM_PhaseReconstruct);

// Whole-corpus analysis per job count — the parallel-speedup series for
// BENCH JSON output (--benchmark_format=json); real time is the metric.
void BM_CorpusAnalyze(benchmark::State& state) {
  static const core::KeywordModel model;
  static const auto corpus = fw::synthesize_corpus();
  const core::Pipeline pipeline(model);
  const core::CorpusRunner runner(
      pipeline, {.jobs = static_cast<int>(state.range(0))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(corpus));
  }
}
BENCHMARK(BM_CorpusAnalyze)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  firmres::support::set_log_level(firmres::support::LogLevel::Warn);
  const std::string json_path = bench::take_json_flag(argc, argv);
  // --cache-dir routes the --json artifact pass through an AnalysisCache:
  // run once for a cold artifact, rerun with the same directory for a warm
  // one, and compare the pair with tools/check_perf_regression.py and a
  // negative threshold to require the speedup (docs/CACHING.md).
  const std::string cache_dir =
      bench::take_value_flag(argc, argv, "--cache-dir");
  // --sdk-json / --sdk-registry-json write the shared-library corpus
  // artifact pair (no-registry vs registry-matched); CI compares them with
  // check_perf_regression.py and a negative threshold to require the
  // dedup speedup (docs/COMPONENTS.md).
  const std::string sdk_json =
      bench::take_value_flag(argc, argv, "--sdk-json");
  const std::string sdk_registry_json =
      bench::take_value_flag(argc, argv, "--sdk-registry-json");
  print_perf();
  print_memory_flow();
  print_parallel_speedup();
  print_sdk_dedup(sdk_json, sdk_registry_json);
  if (!json_path.empty()) {
    // Fresh registry + run so the artifact reflects one corpus pass, not
    // the accumulated counters of the sections above.
    support::metrics::reset_all();
    const core::KeywordModel model;
    std::unique_ptr<core::AnalysisCache> cache;
    if (!cache_dir.empty())
      cache = std::make_unique<core::AnalysisCache>(
          core::AnalysisCache::Options{.dir = cache_dir});
    const bench::CorpusRun run =
        bench::run_corpus(model, /*jobs=*/0, cache.get());
    bench::write_bench_json(json_path, "bench_perf_phases", run.result);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
