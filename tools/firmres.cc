// firmres — command-line front end.
//
//   firmres synth <dir> [--device N] [--sdk] [--sdk-registry <path>]
//                                         synthesize corpus/device image(s)
//   firmres analyze <image-dir>... [--json]
//                                         run the pipeline on saved image(s)
//   firmres lint <image-dir>... [--json] [--werror]
//                                         verify/lint the lifted executables
//   firmres hunt <image-dir>...           probe clouds, report vulnerabilities
//   firmres components <registry> <image-dir>... [--json]
//                                         inventory known library components
//   firmres serve [--jobs N] [--stats-interval S]
//                                         long-running analysis service on
//                                         stdin/stdout (docs/CACHING.md)
//   firmres stats <artifact>...           aggregate metrics/events/serve
//                                         artifacts across runs
//   firmres explain <report.json> --device N [--field K]
//                                         render field derivations from a report
//   firmres ir <image-dir> <exec-path>    print a lifted executable
//   firmres train <model.json> [devices] [epochs]
//                                         train + save the neural classifier
//   firmres corpus                        list the Table I device profiles
//
// Images use the directory format of firmware/serializer.h. `analyze`
// prints the human report by default and the JSON report with --json;
// given several image directories it fans out on a CorpusRunner.
// analyze/hunt/lint/serve all take the observability flags (--trace-out,
// --profile-out, --metrics-out, --metrics-format,
// --metrics-include-runtime — docs/OBSERVABILITY.md).
// analyze/hunt/serve take --cache-dir <dir> to reuse per-function analysis
// artifacts across runs, and --cache-stats to print the hit/miss summary
// to stderr on exit (docs/CACHING.md).
//
// Exit codes: 0 success, 1 runtime failure (or findings for hunt/lint),
// 2 usage / unknown subcommand, 3 unknown flag. README.md carries the
// full per-subcommand flag and exit-code reference.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <memory>

#include "analysis/components/matcher.h"
#include "analysis/components/registry.h"
#include "analysis/pointsto/pointsto.h"
#include "analysis/valueflow/valueflow.h"
#include "analysis/verify/verifier.h"
#include "cloud/vuln_hunter.h"
#include "core/analysis_cache.h"
#include "core/corpus_runner.h"
#include "core/explain.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/sdk_registry.h"
#include "core/serve.h"
#include "core/stats.h"
#include "firmware/serializer.h"
#include "firmware/synthesizer.h"
#include "nlp/trainer.h"
#include "ir/printer.h"
#include "support/error.h"
#include "support/file.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/observability/events.h"
#include "support/observability/metrics.h"
#include "support/observability/profile.h"
#include "support/observability/trace.h"
#include "support/strings.h"

namespace {

namespace fsys = std::filesystem;
using namespace firmres;

constexpr int kExitUsage = 2;
constexpr int kExitUnknownFlag = 3;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  firmres analyze <image-dir>... [--json] [--model <path>] "
               "[--jobs N] [--progress]\n"
               "  firmres lint <image-dir>... [--json] [--werror] [--jobs N]\n"
               "  firmres hunt <image-dir>... [--jobs N] [--progress]\n"
               "  firmres serve [--jobs N] [--model <path>] [--stream-events] "
               "[--stats-interval S]\n"
               "  firmres stats <artifact>...\n"
               "  firmres components <registry> <image-dir>... [--json]\n"
               "  firmres explain <report.json> --device N [--field K]\n"
               "  firmres synth <dir> [--device N] [--sdk | --memory] "
               "[--sdk-registry <path>]\n"
               "  firmres ir <image-dir> <exec-path>\n"
               "  firmres train <model.json> [devices] [epochs]\n"
               "  firmres corpus\n"
               "\n"
               "analyze/lint/hunt/serve also accept the observability flags\n"
               "(docs/OBSERVABILITY.md, docs/PROVENANCE.md):\n"
               "  --trace-out <path>    write a chrome://tracing JSON trace\n"
               "  --profile-out <path>  write a collapsed-stack span profile\n"
               "                        (speedscope / flamegraph.pl input)\n"
               "  --metrics-out <path>  write the metrics dump (.json = JSON,\n"
               "                        anything else = flat text)\n"
               "  --metrics-format <f>  force the dump format: json, or prom\n"
               "                        (OpenMetrics text exposition)\n"
               "  --metrics-include-runtime\n"
               "                        include Runtime-kind metrics (phase\n"
               "                        latencies, queue depth) in the dump\n"
               "                        (off by default: the Work-only dump\n"
               "                        is byte-identical at any --jobs)\n"
               "  --events-out <path>   write the decision-event log (JSONL,\n"
               "                        byte-identical at any --jobs)\n"
               "\n"
               "analyze/hunt/serve take the incremental-cache flags\n"
               "(docs/CACHING.md):\n"
               "  --cache-dir <dir>     reuse per-function analysis artifacts\n"
               "                        across runs (reports stay\n"
               "                        byte-identical to uncached runs)\n"
               "  --cache-stats         print the cache hit/miss summary to\n"
               "                        stderr when the command finishes\n"
               "\n"
               "analyze/hunt/serve/lint take --registry <path> to match\n"
               "executables against a component registry\n"
               "(docs/COMPONENTS.md): matched library functions reuse their\n"
               "certified summaries, the report gains a `components`\n"
               "inventory, and lint flags risky/ambiguous components. synth\n"
               "--sdk writes the shared-library corpus; synth --sdk-registry\n"
               "<path> writes the matching registry file; synth --memory\n"
               "writes the memory-staging corpus (docs/POINTSTO.md).\n"
               "\n"
               "serve reads one command per line from stdin (`analyze\n"
               "<image-dir>...`, `ping`, `quit`) and streams one JSON object\n"
               "per line to stdout — see docs/CACHING.md for the protocol.\n"
               "serve --stats-interval S emits a `stats` heartbeat line every\n"
               "S seconds (req/s, per-phase latency percentiles, cache hit\n"
               "rate, queue depth — docs/OBSERVABILITY.md).\n"
               "\n"
               "stats aggregates saved artifacts (--metrics-out dumps,\n"
               "--events-out logs, serve streams) across runs into one table\n"
               "with percentiles recomputed from the merged buckets.\n");
  return kExitUsage;
}

/// Consume a boolean switch from `args`; true if it was present.
bool take_flag(std::vector<std::string>& args, std::string_view name) {
  bool found = false;
  for (std::size_t i = 0; i < args.size();) {
    if (args[i] == name) {
      found = true;
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return found;
}

/// Consume a `--name <value>` pair from `args` (last occurrence wins).
std::optional<std::string> take_value_flag(std::vector<std::string>& args,
                                           std::string_view name) {
  std::optional<std::string> value;
  for (std::size_t i = 0; i < args.size();) {
    if (args[i] != name) {
      ++i;
      continue;
    }
    if (i + 1 >= args.size())
      throw support::ParseError(std::string(name) + " requires a value");
    value = args[i + 1];
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
  }
  return value;
}

/// After a command consumed every flag it knows, any residual "-…" token is
/// an unknown flag — report it (distinct exit code from usage errors).
bool reject_unknown_flags(const char* cmd,
                          const std::vector<std::string>& args) {
  for (const std::string& a : args) {
    if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "firmres %s: unknown flag '%s'\n", cmd, a.c_str());
      return false;
    }
  }
  return true;
}

/// Parse a whole token as an integer ≥ `min` (0 or 1). Anything else —
/// "abc", "3x", a number out of range — is a ParseError naming `what`.
int parse_int(const std::string& value, const std::string& what, int min) {
  std::size_t consumed = 0;
  int n = 0;
  try {
    n = std::stoi(value, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != value.size() || n < min)
    throw support::ParseError(
        "invalid " + what + " value '" + value + "' (expected a " +
        (min > 0 ? "positive" : "non-negative") + " integer)");
  return n;
}

/// Consume a `--jobs N` pair from `args` (any position). Returns the thread
/// count: 1 by default (sequential), 0 maps to the hardware concurrency.
int take_jobs_flag(std::vector<std::string>& args) {
  int jobs = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != "--jobs") continue;
    if (i + 1 >= args.size())
      throw support::ParseError("--jobs requires a value (0 = all hardware threads)");
    jobs = parse_int(args[i + 1], "--jobs", 0);
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    --i;  // repeated --jobs: keep scanning, last occurrence wins
  }
  if (jobs == 0)
    jobs = static_cast<int>(support::ThreadPool::default_parallelism());
  return jobs < 1 ? 1 : jobs;
}

/// The consumed --cache-dir/--cache-stats pair. The cache (when enabled)
/// must outlive every Pipeline that points at it, so commands keep this
/// struct alive for their whole body.
struct CacheFlags {
  std::unique_ptr<core::AnalysisCache> cache;
  bool stats = false;
};

CacheFlags take_cache_flags(std::vector<std::string>& args) {
  CacheFlags flags;
  const std::optional<std::string> dir = take_value_flag(args, "--cache-dir");
  flags.stats = take_flag(args, "--cache-stats");
  if (dir.has_value()) {
    core::AnalysisCache::Options options;
    options.dir = *dir;
    flags.cache = std::make_unique<core::AnalysisCache>(options);
  }
  return flags;
}

/// The consumed --registry flag: a loaded component registry
/// (docs/COMPONENTS.md), or null. A registry that fails to load degrades
/// to analysis without component matching — a logged warning, never an
/// abort — so a corrupt registry file can never take a device run down.
struct RegistryFlags {
  std::unique_ptr<analysis::components::LibraryRegistry> registry;
};

RegistryFlags take_registry_flag(std::vector<std::string>& args) {
  RegistryFlags flags;
  const std::optional<std::string> path =
      take_value_flag(args, "--registry");
  if (!path.has_value()) return flags;
  std::string error;
  std::optional<analysis::components::LibraryRegistry> loaded =
      analysis::components::LibraryRegistry::load(*path, &error);
  if (!loaded.has_value()) {
    support::events::emit_log(support::events::Severity::Warn,
                              "registry " + *path + " unusable: " + error +
                                  " — continuing without component matching");
    return flags;
  }
  for (const std::string& warning : loaded->warnings())
    support::events::emit_log(support::events::Severity::Warn,
                              "registry " + *path + ": " + warning);
  flags.registry = std::make_unique<analysis::components::LibraryRegistry>(
      std::move(*loaded));
  return flags;
}

/// --cache-stats epilogue: one summary line per tier on stderr, so stdout
/// (reports, serve protocol) stays machine-readable.
void print_cache_stats(const CacheFlags& flags) {
  if (!flags.stats) return;
  if (flags.cache == nullptr) {
    std::fprintf(stderr, "cache: disabled (no --cache-dir)\n");
    return;
  }
  const core::AnalysisCache::Stats s = flags.cache->stats();
  const auto rate = [](std::uint64_t hits, std::uint64_t misses) {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(hits) /
                            static_cast<double>(total);
  };
  std::fprintf(stderr,
               "cache: ident %llu/%llu hits (%.0f%%), program %llu/%llu "
               "(%.0f%%), fn %llu/%llu (%.0f%%)\n",
               static_cast<unsigned long long>(s.ident_hits),
               static_cast<unsigned long long>(s.ident_hits + s.ident_misses),
               rate(s.ident_hits, s.ident_misses),
               static_cast<unsigned long long>(s.program_hits),
               static_cast<unsigned long long>(s.program_hits +
                                               s.program_misses),
               rate(s.program_hits, s.program_misses),
               static_cast<unsigned long long>(s.fn_hits),
               static_cast<unsigned long long>(s.fn_hits + s.fn_misses),
               rate(s.fn_hits, s.fn_misses));
  std::fprintf(stderr, "cache: %llu stores, %llu evictions, %llu load errors\n",
               static_cast<unsigned long long>(s.stores),
               static_cast<unsigned long long>(s.evictions),
               static_cast<unsigned long long>(s.load_errors));
}

/// Consumes the shared observability flags (--trace-out, --profile-out,
/// --metrics-out, --metrics-format, --metrics-include-runtime,
/// --events-out) and writes the requested
/// exports when the command finishes, whichever return path it takes.
/// Tracing is switched on only when --trace-out or --profile-out was
/// given — a plain run pays one relaxed atomic load per span site
/// (docs/OBSERVABILITY.md).
class ObsWriter {
 public:
  explicit ObsWriter(std::vector<std::string>& args)
      : trace_out_(take_value_flag(args, "--trace-out")),
        profile_out_(take_value_flag(args, "--profile-out")),
        metrics_out_(take_value_flag(args, "--metrics-out")),
        metrics_format_(take_value_flag(args, "--metrics-format")),
        events_out_(take_value_flag(args, "--events-out")),
        include_runtime_(take_flag(args, "--metrics-include-runtime")) {
    if (metrics_format_.has_value() && *metrics_format_ != "json" &&
        *metrics_format_ != "prom") {
      throw support::ParseError("--metrics-format must be 'json' or 'prom', got '" +
                                *metrics_format_ + "'");
    }
    if (trace_out_.has_value() || profile_out_.has_value())
      support::trace::set_enabled(true);
    if (events_out_.has_value()) support::events::set_enabled(true);
  }

  ObsWriter(const ObsWriter&) = delete;
  ObsWriter& operator=(const ObsWriter&) = delete;

  ~ObsWriter() {
    try {
      if (trace_out_.has_value() || profile_out_.has_value()) {
        support::trace::set_enabled(false);
        // collect() drains the span buffers, so the trace and profile
        // exporters must share one collection.
        const std::vector<support::trace::Event> events =
            support::trace::collect();
        if (trace_out_.has_value())
          support::trace::write_chrome_trace(*trace_out_, events);
        if (profile_out_.has_value())
          support::profile::write_collapsed(*profile_out_, events);
      }
      if (metrics_out_.has_value()) {
        if (metrics_format_.value_or("") == "prom")
          support::metrics::write_openmetrics(*metrics_out_,
                                              include_runtime_);
        else if (metrics_format_.value_or("") == "json" ||
                 std::string_view(*metrics_out_).ends_with(".json"))
          support::metrics::write_json(*metrics_out_, include_runtime_);
        else
          support::metrics::write_text(*metrics_out_, include_runtime_);
      }
      if (events_out_.has_value()) {
        support::events::set_enabled(false);
        support::events::write_jsonl(*events_out_);
      }
    } catch (const std::exception& e) {
      // A failed export must not clobber the command's exit code path.
      std::fprintf(stderr, "error: %s\n", e.what());
    }
  }

 private:
  std::optional<std::string> trace_out_;
  std::optional<std::string> profile_out_;
  std::optional<std::string> metrics_out_;
  std::optional<std::string> metrics_format_;
  std::optional<std::string> events_out_;
  bool include_runtime_;
};

/// The --progress completion callback: one line per device attempt to
/// stderr, so stdout stays machine-readable and --metrics-out /
/// --events-out determinism is untouched.
void print_progress(int device_id, bool ok,
                    const core::PhaseTimings& timings) {
  if (!ok) {
    std::fprintf(stderr, "device %d attempt failed\n", device_id);
    return;
  }
  std::string phases;
  for (const core::Phase& phase : core::kPhases)
    phases += support::format(", %s %.3fs", phase.name, timings.*phase.slot);
  std::fprintf(stderr, "device %d done (%s)\n", device_id,
               phases.c_str() + 2);
}

int cmd_corpus() {
  std::printf("%-4s %-18s %-24s %-22s %-7s\n", "ID", "Vendor", "Model",
              "Type", "Kind");
  for (const fw::DeviceProfile& p : fw::standard_corpus()) {
    std::printf("%-4d %-18s %-24s %-22s %-7s\n", p.id, p.vendor.c_str(),
                p.model.c_str(), p.device_type.c_str(),
                p.script_based ? "script" : "binary");
  }
  return 0;
}

int cmd_synth(std::vector<std::string> args) {
  int only_device = 0;
  if (const auto device = take_value_flag(args, "--device"))
    only_device = parse_int(*device, "--device", 1);
  const bool sdk = take_flag(args, "--sdk");
  const bool memory = take_flag(args, "--memory");
  const std::optional<std::string> registry_path =
      take_value_flag(args, "--sdk-registry");
  if (!reject_unknown_flags("synth", args)) return kExitUnknownFlag;
  if (sdk && memory) {
    std::fprintf(stderr, "--sdk and --memory are mutually exclusive\n");
    return kExitUsage;
  }
  if (registry_path.has_value()) {
    // Certify the vendor-SDK templates into a registry file — the offline
    // step matching the --sdk corpus (docs/COMPONENTS.md).
    const analysis::components::LibraryRegistry registry =
        core::build_sdk_registry();
    const std::string error = registry.save(*registry_path);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu libraries, %zu functions)\n",
                registry_path->c_str(), registry.libraries().size(),
                registry.total_functions());
    if (args.empty()) return 0;  // registry-only invocation
  }
  if (args.empty()) return usage();
  const fsys::path base = args[0];
  int written = 0;
  for (const fw::DeviceProfile& profile :
       sdk      ? fw::sdk_corpus()
       : memory ? fw::memory_corpus()
                : fw::standard_corpus()) {
    if (only_device != 0 && profile.id != only_device) continue;
    const fw::FirmwareImage image = fw::synthesize(profile);
    const fsys::path dir =
        only_device != 0 ? base
                         : base / support::format("device%02d", profile.id);
    fw::save_image(image, dir);
    std::printf("wrote %s (%zu files, %zu messages)\n", dir.string().c_str(),
                image.files.size(), image.truth.messages.size());
    ++written;
  }
  if (written == 0) {
    std::fprintf(stderr, "no such device id\n");
    return 1;
  }
  return 0;
}

/// The human report of one analyzed image.
std::string analysis_text(const fw::FirmwareImage& image,
                          const core::DeviceAnalysis& analysis) {
  std::string out =
      support::format("image: %s %s (device %d)\n",
                      image.profile.vendor.c_str(),
                      image.profile.model.c_str(), image.profile.id);
  for (const analysis::components::ComponentHit& hit : analysis.components)
    out += support::format(
        "component: %s %s — %zu/%zu functions matched%s%s\n",
        hit.name.c_str(), hit.version.c_str(), hit.matched_functions,
        hit.total_functions,
        hit.version_ambiguous ? " [version ambiguous]" : "",
        hit.risky ? (" [RISKY: " + hit.risk_note + "]").c_str() : "");
  if (analysis.device_cloud_executable.empty())
    return out + "no device-cloud executable identified\n";
  out += "device-cloud executable: " + analysis.device_cloud_executable +
         "\n";
  out += support::format(
      "%zu messages reconstructed, %d LAN-destined discarded, %zu "
      "alarms\n\n",
      analysis.messages.size(), analysis.discarded_lan,
      analysis.flaws.size());
  for (std::size_t i = 0; i < analysis.messages.size(); ++i) {
    const core::ReconstructedMessage& m = analysis.messages[i];
    out += support::format("[%2zu] %-38s %-10s %zu fields\n", i,
                           m.endpoint_path.empty()
                               ? "(endpoint not evident)"
                               : m.endpoint_path.c_str(),
                           fw::wire_format_name(m.format), m.fields.size());
  }
  out += "\nalarms:\n";
  for (const core::FlawReport& flaw : analysis.flaws)
    out += support::format("  message #%zu [%s]: %s\n", flaw.message_index,
                           core::flaw_kind_name(flaw.kind),
                           flaw.detail.c_str());
  return out;
}

int cmd_analyze(std::vector<std::string> args) {
  const int jobs = take_jobs_flag(args);
  const bool json = take_flag(args, "--json");
  const bool progress = take_flag(args, "--progress");
  const std::string model_path =
      take_value_flag(args, "--model").value_or("");
  const CacheFlags cache = take_cache_flags(args);
  const ObsWriter obs(args);
  const RegistryFlags registry = take_registry_flag(args);
  if (!reject_unknown_flags("analyze", args)) return kExitUnknownFlag;
  if (args.empty()) return usage();

  // Dictionary matcher by default; a trained classifier with --model.
  const core::KeywordModel keyword_model;
  std::unique_ptr<nlp::SliceClassifier> neural;
  if (!model_path.empty()) neural = nlp::SliceClassifier::load(model_path);
  const core::SemanticsModel& model =
      neural != nullptr ? static_cast<const core::SemanticsModel&>(*neural)
                        : keyword_model;
  core::Pipeline::Options pipeline_options;
  pipeline_options.cache = cache.cache.get();
  pipeline_options.registry = registry.registry.get();
  const core::Pipeline pipeline(model, pipeline_options);

  if (args.size() == 1) {
    const fw::FirmwareImage image = fw::load_image(args[0]);
    core::DeviceAnalysis analysis;
    if (jobs > 1) {
      // The per-executable points-to and value-flow solves parallelize
      // their per-function work; the report is identical to the sequential
      // run (timings aside).
      support::ThreadPool pool(static_cast<std::size_t>(jobs));
      analysis = pipeline.analyze(image, &pool);
    } else {
      analysis = pipeline.analyze(image);
    }
    if (progress) print_progress(analysis.device_id, true, analysis.timings);
    if (json) {
      std::printf("%s\n",
                  core::analysis_to_json(analysis).dump(true).c_str());
    } else {
      std::fputs(analysis_text(image, analysis).c_str(), stdout);
    }
    print_cache_stats(cache);
    return 0;
  }

  // Several image directories: one CorpusRunner task per directory loads,
  // analyzes and renders it — a JSON report at array depth 1, or the text
  // report — so this thread only frames and writes the pieces. A broken
  // directory skips that device (like hunt), not the whole run.
  core::CorpusRunner::Options runner_options{.jobs = jobs};
  if (progress) runner_options.on_device_done = print_progress;
  const core::CorpusRunner runner(pipeline, runner_options);
  const std::vector<core::DirectoryResult> results = runner.run_dirs(
      args, [json](const fw::FirmwareImage& image,
                   const core::DeviceAnalysis& analysis) {
        return json ? core::analysis_to_json(analysis).dump(true, 1)
                    : analysis_text(image, analysis) + "\n";
      });
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (results[i].load_failed)
      std::fprintf(stderr, "skipping %s: %s\n", args[i].c_str(),
                   results[i].failure->error.c_str());
  }

  // Device-id order, ties in argument order.
  std::vector<std::size_t> order(results.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return results[a].device_id < results[b].device_id;
                   });
  std::vector<const std::string*> pieces;
  std::size_t failed = 0;
  for (const std::size_t i : order) {
    const std::optional<core::DeviceFailure>& failure = results[i].failure;
    if (!failure.has_value()) {
      pieces.push_back(&results[i].rendered);
    } else if (!results[i].load_failed) {
      ++failed;
      std::fprintf(stderr, "device %d failed (%d attempt%s): %s\n",
                   failure->device_id, failure->attempts,
                   failure->attempts == 1 ? "" : "s",
                   failure->error.c_str());
    }
  }
  if (json) {
    // Json::dump's pretty array framing around the depth-1 elements.
    std::fputs(pieces.empty() ? "[" : "[\n", stdout);
    for (std::size_t k = 0; k < pieces.size(); ++k) {
      std::fputs("  ", stdout);
      std::fputs(pieces[k]->c_str(), stdout);
      std::fputs(k + 1 < pieces.size() ? ",\n" : "\n", stdout);
    }
    std::fputs("]\n", stdout);
  } else {
    for (const std::string* piece : pieces) std::fputs(piece->c_str(), stdout);
    std::printf("%zu device(s) analyzed, %zu failed\n", pieces.size(),
                failed);
  }
  print_cache_stats(cache);
  return pieces.size() == results.size() ? 0 : 1;
}

int cmd_hunt(std::vector<std::string> args) {
  const int jobs = take_jobs_flag(args);
  const bool progress = take_flag(args, "--progress");
  const CacheFlags cache = take_cache_flags(args);
  const ObsWriter obs(args);
  const RegistryFlags registry = take_registry_flag(args);
  if (!reject_unknown_flags("hunt", args)) return kExitUnknownFlag;
  if (args.empty()) return usage();
  std::vector<fw::FirmwareImage> images;
  cloudsim::CloudNetwork net;
  for (const std::string& dir : args) {
    // A broken image directory skips that device, not the whole hunt.
    try {
      images.push_back(fw::load_image(dir));
      net.enroll(images.back());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "skipping %s: %s\n", dir.c_str(), e.what());
    }
  }
  const core::KeywordModel model;
  core::Pipeline::Options pipeline_options;
  pipeline_options.cache = cache.cache.get();
  pipeline_options.registry = registry.registry.get();
  const core::Pipeline pipeline(model, pipeline_options);
  core::CorpusRunner::Options runner_options{.jobs = jobs};
  if (progress) runner_options.on_device_done = print_progress;
  const core::CorpusRunner runner(pipeline, runner_options);
  const core::CorpusResult run = runner.run(images);
  for (const core::DeviceFailure& failure : run.failures)
    std::fprintf(stderr, "device %d failed: %s\n", failure.device_id,
                 failure.error.c_str());
  int confirmed = 0;
  for (const core::DeviceAnalysis& analysis : run.analyses) {
    const fw::FirmwareImage* image = nullptr;
    for (const fw::FirmwareImage& candidate : images)
      if (candidate.profile.id == analysis.device_id) image = &candidate;
    if (image == nullptr) continue;
    const cloudsim::HuntResult result =
        cloudsim::VulnHunter(net).hunt(analysis, *image);
    for (const cloudsim::VulnFinding& f : result.confirmed) {
      ++confirmed;
      std::printf("device %d: %s\n    %s [%s]\n    → %s%s\n", f.device_id,
                  f.functionality.c_str(), f.path.c_str(), f.params.c_str(),
                  f.consequence.c_str(),
                  f.previously_known ? " (previously known)" : "");
    }
  }
  std::printf("%d confirmed vulnerabilities\n", confirmed);
  print_cache_stats(cache);
  return confirmed > 0 ? 0 : 1;
}

/// Long-running analysis service: read commands from stdin, stream JSONL
/// protocol lines to stdout until `quit` or EOF (core/serve.h). Pairs with
/// --cache-dir so resubmitted firmware is served from the artifact store.
int cmd_serve(std::vector<std::string> args) {
  const int jobs = take_jobs_flag(args);
  const bool stream_events = take_flag(args, "--stream-events");
  double stats_interval_s = 0.0;
  if (const auto interval = take_value_flag(args, "--stats-interval")) {
    std::size_t consumed = 0;
    try {
      stats_interval_s = std::stod(*interval, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != interval->size() || stats_interval_s <= 0.0)
      throw support::ParseError("invalid --stats-interval value '" +
                                *interval +
                                "' (expected seconds > 0, e.g. 5 or 0.5)");
  }
  const std::string model_path =
      take_value_flag(args, "--model").value_or("");
  const CacheFlags cache = take_cache_flags(args);
  const ObsWriter obs(args);
  const RegistryFlags registry = take_registry_flag(args);
  if (!reject_unknown_flags("serve", args)) return kExitUnknownFlag;
  if (!args.empty()) return usage();  // image paths arrive over stdin

  const core::KeywordModel keyword_model;
  std::unique_ptr<nlp::SliceClassifier> neural;
  if (!model_path.empty()) neural = nlp::SliceClassifier::load(model_path);
  const core::SemanticsModel& model =
      neural != nullptr ? static_cast<const core::SemanticsModel&>(*neural)
                        : keyword_model;

  core::Pipeline::Options pipeline_options;
  pipeline_options.cache = cache.cache.get();
  pipeline_options.registry = registry.registry.get();
  core::ServeSession::Options serve_options;
  serve_options.jobs = jobs;
  serve_options.stream_events = stream_events;
  serve_options.stats_interval_s = stats_interval_s;
  if (stream_events) support::events::set_enabled(true);

  core::ServeSession session(model, pipeline_options, serve_options);
  session.run(std::cin, std::cout);
  print_cache_stats(cache);
  return 0;
}

/// Lint every lifted executable of the given image directories with the IR
/// verifier. Exit 0 when clean: no errors, and no warnings under --werror.
int cmd_lint(std::vector<std::string> args) {
  const int jobs = take_jobs_flag(args);
  const bool json = take_flag(args, "--json");
  const bool werror = take_flag(args, "--werror");
  const ObsWriter obs(args);
  const RegistryFlags registry = take_registry_flag(args);
  if (!reject_unknown_flags("lint", args)) return kExitUnknownFlag;
  if (args.empty()) return usage();

  std::unique_ptr<support::ThreadPool> pool;
  if (jobs > 1)
    pool = std::make_unique<support::ThreadPool>(
        static_cast<std::size_t>(jobs));
  analysis::verify::Verifier::Options verifier_options;
  verifier_options.component_registry = registry.registry.get();
  const analysis::verify::Verifier verifier(verifier_options);

  bool all_clean = true;
  std::size_t errors = 0, warnings = 0, notes = 0, programs = 0;
  std::size_t indirect_total = 0, indirect_resolved = 0;
  std::size_t pt_loads_total = 0, pt_loads_resolved = 0;
  std::size_t pt_stores_total = 0, pt_stores_never_loaded = 0;
  support::JsonArray json_images;
  for (const std::string& dir : args) {
    const fw::FirmwareImage image = fw::load_image(dir);
    support::JsonArray json_programs;
    for (const fw::FirmwareFile& file : image.files) {
      if (file.kind != fw::FirmwareFile::Kind::Executable ||
          file.program == nullptr)
        continue;
      const analysis::verify::LintReport report =
          verifier.run(*file.program, pool.get());
      const analysis::ValueFlow vf(*file.program, pool.get());
      const analysis::ValueFlow::Stats vf_stats = vf.stats();
      const analysis::pointsto::PointsTo pt(*file.program, pool.get());
      const analysis::pointsto::PointsTo::Stats pt_stats = pt.stats();
      ++programs;
      errors += report.errors();
      warnings += report.warnings();
      notes += report.notes();
      indirect_total += vf_stats.indirect_total;
      indirect_resolved += vf_stats.indirect_resolved;
      pt_loads_total += pt_stats.loads_total;
      pt_loads_resolved += pt_stats.loads_resolved;
      pt_stores_total += pt_stats.stores_total;
      pt_stores_never_loaded += pt_stats.stores_never_loaded;
      all_clean = all_clean && report.clean(werror);
      if (json) {
        support::Json entry = analysis::verify::report_to_json(report);
        entry.set("path", file.path);
        support::Json value_flow{support::JsonObject{}};
        value_flow.set("indirect_total",
                       static_cast<double>(vf_stats.indirect_total));
        value_flow.set("indirect_resolved",
                       static_cast<double>(vf_stats.indirect_resolved));
        value_flow.set("resolution_rate",
                       vf_stats.indirect_total == 0
                           ? 1.0
                           : static_cast<double>(vf_stats.indirect_resolved) /
                                 vf_stats.indirect_total);
        entry.set("value_flow", std::move(value_flow));
        support::Json memory_flow{support::JsonObject{}};
        memory_flow.set("loads_total",
                        static_cast<double>(pt_stats.loads_total));
        memory_flow.set("loads_resolved",
                        static_cast<double>(pt_stats.loads_resolved));
        memory_flow.set("loads_with_stores",
                        static_cast<double>(pt_stats.loads_with_stores));
        memory_flow.set("stores_total",
                        static_cast<double>(pt_stats.stores_total));
        memory_flow.set("stores_never_loaded",
                        static_cast<double>(pt_stats.stores_never_loaded));
        memory_flow.set(
            "resolution_rate",
            pt_stats.loads_total == 0
                ? 1.0
                : static_cast<double>(pt_stats.loads_resolved) /
                      static_cast<double>(pt_stats.loads_total));
        entry.set("memory_flow", std::move(memory_flow));
        json_programs.push_back(std::move(entry));
      } else {
        for (const analysis::verify::Diagnostic& d : report.diagnostics)
          std::printf("%s: %s\n", file.path.c_str(),
                      d.to_string().c_str());
      }
    }
    if (json) {
      support::JsonObject obj;
      obj.emplace_back("image", dir);
      obj.emplace_back("device", image.profile.id);
      obj.emplace_back("programs", support::Json(std::move(json_programs)));
      json_images.push_back(support::Json(std::move(obj)));
    }
  }
  if (json) {
    std::printf("%s\n",
                support::Json(std::move(json_images)).dump(true).c_str());
  } else {
    std::printf("%zu program(s): %zu error(s), %zu warning(s), %zu note(s)%s\n",
                programs, errors, warnings, notes,
                werror ? " [--werror]" : "");
    std::printf("indirect calls: %zu/%zu resolved (%.0f%%)\n",
                indirect_resolved, indirect_total,
                indirect_total == 0
                    ? 100.0
                    : 100.0 * static_cast<double>(indirect_resolved) /
                          static_cast<double>(indirect_total));
    std::printf("memory loads: %zu/%zu resolved (%.0f%%), "
                "%zu store(s), %zu never loaded\n",
                pt_loads_resolved, pt_loads_total,
                pt_loads_total == 0
                    ? 100.0
                    : 100.0 * static_cast<double>(pt_loads_resolved) /
                          static_cast<double>(pt_loads_total),
                pt_stores_total, pt_stores_never_loaded);
  }
  return all_clean ? 0 : 1;
}

/// Fingerprint-match every executable of the given images against a
/// component registry and print the per-device inventory — no pipeline
/// run, no ground truth needed (docs/COMPONENTS.md). Exit 0 on success
/// (whatever was matched), 1 on an unusable registry or image.
int cmd_components(std::vector<std::string> args) {
  const bool json = take_flag(args, "--json");
  if (!reject_unknown_flags("components", args)) return kExitUnknownFlag;
  if (args.size() < 2) return usage();

  std::string error;
  const std::optional<analysis::components::LibraryRegistry> registry =
      analysis::components::LibraryRegistry::load(args[0], &error);
  if (!registry.has_value()) {
    std::fprintf(stderr, "cannot load registry %s: %s\n", args[0].c_str(),
                 error.c_str());
    return 1;
  }
  for (const std::string& warning : registry->warnings())
    std::fprintf(stderr, "registry warning: %s\n", warning.c_str());

  support::JsonArray json_devices;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const fw::FirmwareImage image = fw::load_image(args[i]);
    std::vector<analysis::components::MatchResult> results;
    for (const fw::FirmwareFile& file : image.files) {
      if (file.kind != fw::FirmwareFile::Kind::Executable ||
          file.program == nullptr)
        continue;
      results.push_back(
          analysis::components::match_program(*file.program, *registry));
    }
    std::vector<const analysis::components::MatchResult*> views;
    for (const analysis::components::MatchResult& r : results)
      views.push_back(&r);
    const std::vector<analysis::components::ComponentHit> inventory =
        analysis::components::component_inventory(*registry, views);
    if (json) {
      support::JsonObject obj;
      obj.emplace_back("image", args[i]);
      obj.emplace_back("device", image.profile.id);
      obj.emplace_back("components", core::components_to_json(inventory));
      json_devices.push_back(support::Json(std::move(obj)));
      continue;
    }
    std::printf("%s (device %d):\n", args[i].c_str(), image.profile.id);
    if (inventory.empty()) std::printf("  no known components matched\n");
    for (const analysis::components::ComponentHit& hit : inventory) {
      std::printf("  %s %s — %zu/%zu functions matched, %zu unique%s%s\n",
                  hit.name.c_str(), hit.version.c_str(),
                  hit.matched_functions, hit.total_functions,
                  hit.unique_matches,
                  hit.version_ambiguous ? " [version ambiguous]" : "",
                  hit.risky ? (" [RISKY: " + hit.risk_note + "]").c_str()
                            : "");
    }
  }
  if (json)
    std::printf("%s\n",
                support::Json(std::move(json_devices)).dump(true).c_str());
  return 0;
}

/// Aggregate saved telemetry artifacts — --metrics-out dumps, --events-out
/// logs, serve-mode JSONL streams — across any number of runs into one
/// table with percentiles recomputed from the merged buckets
/// (core/stats.h, docs/OBSERVABILITY.md).
int cmd_stats(const std::vector<std::string>& args) {
  if (!reject_unknown_flags("stats", args)) return kExitUnknownFlag;
  if (args.empty()) return usage();
  const core::stats::Aggregate aggregate =
      core::stats::aggregate_artifacts(args);
  std::printf("%s", core::stats::render_table(aggregate).c_str());
  return 0;
}

/// Render root-to-leaf field derivations from a saved report JSON; no
/// firmware image or re-analysis needed (core/explain.h).
int cmd_explain(std::vector<std::string> args) {
  const std::optional<std::string> device = take_value_flag(args, "--device");
  core::ExplainOptions options;
  options.field = take_value_flag(args, "--field").value_or("");
  if (!reject_unknown_flags("explain", args)) return kExitUnknownFlag;
  if (args.size() != 1 || !device.has_value()) return usage();
  options.device_id = parse_int(*device, "--device", 1);

  const std::optional<std::string> text = support::read_file(args[0]);
  if (!text.has_value()) {
    std::fprintf(stderr, "cannot read %s\n", args[0].c_str());
    return 1;
  }
  const support::Json report = support::Json::parse(*text);
  std::printf("%s", core::explain_report(report, options).c_str());
  return 0;
}

int cmd_train(const std::vector<std::string>& args) {
  if (!reject_unknown_flags("train", args)) return kExitUnknownFlag;
  if (args.empty()) return usage();
  nlp::DatasetConfig dc;
  if (args.size() > 1) dc.num_devices = parse_int(args[1], "devices", 1);
  nlp::TrainConfig tc;
  if (args.size() > 2) tc.epochs = parse_int(args[2], "epochs", 1);
  tc.verbose = true;
  support::set_log_level(support::LogLevel::Info);
  const nlp::Dataset dataset = nlp::build_dataset(dc);
  std::printf("dataset: %zu slices from %d pseudo-devices\n", dataset.total(),
              dc.num_devices);
  const auto model = nlp::train_classifier(dataset, nlp::ModelConfig{}, tc);
  const auto val = nlp::evaluate_labels(*model, dataset.val);
  const auto test = nlp::evaluate_labels(*model, dataset.test);
  std::printf("val %.2f%%  test %.2f%%\n", 100 * val.accuracy(),
              100 * test.accuracy());
  model->save(args[0]);
  std::printf("saved %s (%zu parameters)\n", args[0].c_str(),
              model->parameter_count());
  return 0;
}

int cmd_ir(const std::vector<std::string>& args) {
  if (!reject_unknown_flags("ir", args)) return kExitUnknownFlag;
  if (args.size() < 2) return usage();
  const fw::FirmwareImage image = fw::load_image(args[0]);
  const fw::FirmwareFile* file = image.file(args[1]);
  if (file == nullptr || file->program == nullptr) {
    std::fprintf(stderr, "no executable at %s\n", args[1].c_str());
    return 1;
  }
  std::printf("%s", ir::render_program(*file->program).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::set_log_level(support::LogLevel::Warn);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "corpus") return cmd_corpus();
    if (cmd == "synth") return cmd_synth(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "lint") return cmd_lint(args);
    if (cmd == "hunt") return cmd_hunt(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "components") return cmd_components(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "explain") return cmd_explain(args);
    if (cmd == "ir") return cmd_ir(args);
    if (cmd == "train") return cmd_train(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "firmres: unknown subcommand '%s'\n", cmd.c_str());
  return usage();
}
