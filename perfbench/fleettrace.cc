// Traced in-process driver for the fleet benchmark (perfbench/README.md).
//
//   fleettrace <out-dir> [--registry <file>] [--cache-dir <dir>]
//              <image-dir>...
//
// Does what `firmres analyze` does for each image — fw::load_image, the real
// core::Pipeline::analyze, core::analysis_to_json — at jobs 1, with the
// program's own span tracing (support/observability/trace.h) switched on.
// The pipeline records its layer spans itself (phase.*, identify.program,
// pointsto.solve, valueflow.solve, taint.build_mft); this driver adds only
// `driver`, `device`, `firmware.load` and `report.emit` around them. Spans
// stay in memory and are folded into per-stack self times with
// support::profile::fold when each segment ends.
//
// Segments, in order:
//   warm-up     one untraced pass, untimed
//   rounds      kRounds × (untraced pass, traced pass): the walls of both
//               give the tracing overhead; the fastest traced pass gives
//               the `traced` profile, and the first writes
//               reports.jsonl (timing-free, one report per image in
//               argument order)
//   corpus1     CorpusRunner over the preloaded images at jobs 1
//   corpus4     the same at jobs 4; only its `corpus.run` span is used
//   components  with --registry: the pipeline under the registry
//   cache       with --cache-dir: the pipeline under the cache, reports
//               checked against the traced pass
// Output: <out-dir>/trace.json (walls, folded profiles, counter deltas) and
// <out-dir>/reports.jsonl.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/components/registry.h"
#include "core/analysis_cache.h"
#include "core/corpus_runner.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/semantics.h"
#include "firmware/serializer.h"
#include "support/json.h"
#include "support/observability/metrics.h"
#include "support/observability/profile.h"
#include "support/observability/trace.h"

namespace {

using namespace firmres;
namespace fsys = std::filesystem;
namespace trace = support::trace;
using Clock = std::chrono::steady_clock;

constexpr int kRounds = 5;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The folded spans recorded since the last collect(), as
/// [stack, total_s, self_s, count] rows.
support::Json drain_profile() {
  support::JsonArray rows;
  for (const support::profile::Entry& e :
       support::profile::fold(trace::collect())) {
    rows.push_back(support::Json(support::JsonArray{
        support::Json(e.stack), support::Json(e.total_ns * 1e-9),
        support::Json(e.self_ns * 1e-9),
        support::Json(static_cast<double>(e.count))}));
  }
  return support::Json(std::move(rows));
}

std::map<std::string, std::uint64_t> counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : support::metrics::snapshot(true).counters)
    out[c.name] = c.value;
  return out;
}

support::Json counter_delta(const std::map<std::string, std::uint64_t>& before,
                            const std::map<std::string, std::uint64_t>& after) {
  support::Json out{support::JsonObject{}};
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t prev = it == before.end() ? 0 : it->second;
    out.set(name, static_cast<double>(value - prev));
  }
  return out;
}

std::uint64_t tree_bytes(const fsys::path& dir, std::uint64_t* files) {
  std::uint64_t bytes = 0;
  for (const fsys::directory_entry& e :
       fsys::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    bytes += e.file_size();
    if (files != nullptr) ++*files;
  }
  return bytes;
}

struct PassResult {
  double wall_s = 0.0;
  std::uint64_t report_bytes = 0;
};

/// Load, analyze and emit every image, each under a `device` span, as
/// `firmres analyze --json --jobs 1` does.
PassResult run_pass(const core::Pipeline& pipeline,
                    const std::vector<std::string>& dirs,
                    std::ofstream* reports) {
  PassResult result;
  const Clock::time_point start = Clock::now();
  {
    FIRMRES_SPAN("driver", "bench");
    for (const std::string& dir : dirs) {
      FIRMRES_SPAN("device", "bench");
      std::optional<fw::FirmwareImage> image;
      {
        FIRMRES_SPAN("firmware.load", "bench");
        image.emplace(fw::load_image(dir));
      }
      const core::DeviceAnalysis analysis = pipeline.analyze(*image);
      FIRMRES_SPAN("report.emit", "bench");
      const std::string text =
          core::analysis_to_json(analysis, /*include_timings=*/false)
              .dump(false);
      result.report_bytes += text.size();
      if (reports != nullptr) *reports << text << "\n";
    }
  }
  result.wall_s = seconds_since(start);
  return result;
}

support::Json walls(const std::vector<double>& values) {
  support::JsonArray out;
  for (const double v : values) out.push_back(support::Json(v));
  return support::Json(std::move(out));
}

int run(const fsys::path& out, const std::vector<std::string>& dirs,
        const std::optional<std::string>& registry_path,
        const std::optional<std::string>& cache_dir) {
  const core::KeywordModel model;
  const core::Pipeline pipeline(model);
  support::Json doc{support::JsonObject{}};
  std::uint64_t input_bytes = 0;
  for (const std::string& dir : dirs) input_bytes += tree_bytes(dir, nullptr);
  doc.set("input_bytes", static_cast<double>(input_bytes));

  // The warm-up pass only fills the page cache and the allocator, so every
  // timed pass starts from the same state. Untraced and traced passes
  // alternate so that drift on the host lands on both alike.
  (void)run_pass(pipeline, dirs, nullptr);
  std::vector<double> untraced_walls, traced_walls;
  std::vector<support::Json> profiles;
  for (int round = 0; round < kRounds; ++round) {
    untraced_walls.push_back(run_pass(pipeline, dirs, nullptr).wall_s);
    std::optional<std::ofstream> reports;
    if (round == 0) reports.emplace(out / "reports.jsonl", std::ios::binary);
    const auto before = counters();
    trace::clear();
    trace::set_enabled(true);
    const PassResult traced =
        run_pass(pipeline, dirs, reports.has_value() ? &*reports : nullptr);
    trace::set_enabled(false);
    profiles.push_back(drain_profile());
    traced_walls.push_back(traced.wall_s);
    if (round == 0) {
      doc.set("counters", counter_delta(before, counters()));
      doc.set("report_bytes", static_cast<double>(traced.report_bytes));
    }
  }
  doc.set("untraced_walls_s", walls(untraced_walls));
  doc.set("traced_walls_s", walls(traced_walls));
  // The fastest pass is the one least disturbed by other work on the host.
  const std::size_t fastest = static_cast<std::size_t>(
      std::min_element(traced_walls.begin(), traced_walls.end()) -
      traced_walls.begin());
  doc.set("traced_wall_s", traced_walls[fastest]);
  support::Json profile{support::JsonObject{}};
  profile.set("traced", profiles[fastest]);

  std::vector<fw::FirmwareImage> images;
  for (const std::string& dir : dirs) images.push_back(fw::load_image(dir));
  std::vector<const fw::FirmwareImage*> views;
  for (const fw::FirmwareImage& image : images) views.push_back(&image);
  trace::set_enabled(true);
  {
    const core::CorpusResult serial =
        core::CorpusRunner(pipeline, {.jobs = 1}).run(views);
    profile.set("corpus1", drain_profile());
    const auto pool_before = counters();
    const core::CorpusResult parallel =
        core::CorpusRunner(pipeline, {.jobs = 4}).run(views);
    profile.set("corpus4", drain_profile());
    support::Json corpus{support::JsonObject{}};
    corpus.set("jobs", 4);
    corpus.set("failures", static_cast<double>(serial.failures.size() +
                                               parallel.failures.size()));
    corpus.set("counters", counter_delta(pool_before, counters()));
    doc.set("corpus", std::move(corpus));
  }

  if (registry_path.has_value()) {
    std::string error;
    const std::optional<analysis::components::LibraryRegistry> registry =
        analysis::components::LibraryRegistry::load(*registry_path, &error);
    if (!registry.has_value())
      throw std::runtime_error("registry " + *registry_path + ": " + error);
    core::Pipeline::Options options;
    options.registry = &*registry;
    const core::Pipeline matched(model, options);
    const auto before = counters();
    for (const fw::FirmwareImage& image : images)
      (void)matched.analyze(image);
    profile.set("components", drain_profile());
    support::Json section{support::JsonObject{}};
    section.set("counters", counter_delta(before, counters()));
    doc.set("components", std::move(section));
  }

  if (cache_dir.has_value()) {
    core::AnalysisCache cache({.dir = *cache_dir});
    core::Pipeline::Options options;
    options.cache = &cache;
    const core::Pipeline cached(model, options);
    std::ifstream cold(out / "reports.jsonl", std::ios::binary);
    std::uint64_t mismatches = 0;
    const auto before = counters();
    for (const fw::FirmwareImage& image : images) {
      const core::DeviceAnalysis analysis = cached.analyze(image);
      std::string expected;
      std::getline(cold, expected);
      if (core::analysis_to_json(analysis, false).dump(false) != expected)
        ++mismatches;
    }
    profile.set("cache", drain_profile());
    support::Json section{support::JsonObject{}};
    section.set("counters", counter_delta(before, counters()));
    std::uint64_t entries = 0;
    section.set("disk_bytes",
                static_cast<double>(tree_bytes(*cache_dir, &entries)));
    section.set("entries", static_cast<double>(entries));
    section.set("report_mismatches", static_cast<double>(mismatches));
    doc.set("cache", std::move(section));
  }
  trace::set_enabled(false);

  doc.set("profile", std::move(profile));
  std::ofstream f(out / "trace.json", std::ios::binary);
  f << doc.dump(false) << "\n";
  return f ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::optional<std::string> registry, cache_dir;
  std::vector<std::string> dirs;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if ((args[i] == "--registry" || args[i] == "--cache-dir") &&
        i + 1 < args.size()) {
      (args[i] == "--registry" ? registry : cache_dir) = args[i + 1];
      ++i;
    } else {
      dirs.push_back(args[i]);
    }
  }
  if (args.empty() || dirs.empty()) {
    std::fprintf(stderr,
                 "usage: fleettrace <out-dir> [--registry <file>] "
                 "[--cache-dir <dir>] <image-dir>...\n");
    return 2;
  }
  try {
    return run(args[0], dirs, registry, cache_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleettrace: %s\n", e.what());
    return 1;
  }
}
