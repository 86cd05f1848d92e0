// End-to-end FIRMRES pipeline (Fig. 3).
//
// firmware image → pinpoint device-cloud executables → backward taint /
// MFTs → slices + semantics → message reconstruction → form check.
// Phase wall-clock times are recorded for the §V-E performance breakdown:
// the spans that time each phase bill its PhaseTimings slot.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/components/matcher.h"
#include "core/exec_identifier.h"
#include "core/form_check.h"
#include "core/taint.h"
#include "core/reconstructor.h"
#include "core/semantics.h"
#include "firmware/firmware_image.h"
#include "support/thread_pool.h"

namespace firmres::core {

class AnalysisCache;

/// Wall-clock seconds per phase of one analysis. Only closing spans write
/// these slots (trace::Span's slot; docs/OBSERVABILITY.md lists which span
/// bills which slot), so each slot is the summed duration of its spans.
struct PhaseTimings {
  /// Device-cloud executable identification, including each executable's
  /// context solve (points-to, value flow, call graph) and, with a
  /// registry, component matching.
  double pinpoint_s = 0.0;
  /// Taint analysis / MFT construction over the Phase-1 contexts (plus a
  /// context solve for a program whose verdict came from the cache).
  double fields_s = 0.0;
  /// §IV-C: slice generation, format-string split, classification.
  double semantics_s = 0.0;
  /// §IV-D: grouping and LAN filter, format inference, field order; and
  /// delivery of every message into the analysis.
  double concat_s = 0.0;
  double check_s = 0.0;  ///< §IV-E message form check
  /// Function- and program-tier analysis-cache stores (0 without a cache).
  double cache_store_s = 0.0;
  /// CPU time the analyzing thread consumed over the whole run. Under
  /// intra-image parallelism worker-thread cycles are not attributed here,
  /// so cpu_total_s ≤ total_s per device; corpus-level cpu/wall ratios come
  /// from CorpusResult.
  double cpu_total_s = 0.0;
  /// Wall-clock total: the sum of the phase slots (kPhases).
  double total_s() const;
};

/// One timed phase: its PhaseTimings slot and every name it goes by.
struct Phase {
  double PhaseTimings::*slot;
  const char* report_key;  ///< key in a report's `timings` block
  const char* name;        ///< --progress label and bench-artifact phase key
  const char* histogram;   ///< Runtime-kind per-device latency histogram (µs)
};

/// The phases, in report, --progress and bench-artifact order.
inline constexpr Phase kPhases[] = {
    {&PhaseTimings::pinpoint_s, "pinpoint_s", "pinpoint", "phase.pinpoint_us"},
    {&PhaseTimings::fields_s, "fields_s", "fields", "phase.fields_us"},
    {&PhaseTimings::semantics_s, "semantics_s", "semantics",
     "phase.semantics_us"},
    {&PhaseTimings::concat_s, "concat_s", "concat", "phase.concat_us"},
    {&PhaseTimings::check_s, "check_s", "check", "phase.check_us"},
    {&PhaseTimings::cache_store_s, "cache_store_s", "cache_store",
     "phase.cache_store_us"},
};

inline double PhaseTimings::total_s() const {
  double total = 0.0;
  for (const Phase& phase : kPhases) total += this->*phase.slot;
  return total;
}

struct DeviceAnalysis {
  int device_id = 0;
  /// Path of the identified device-cloud executable; empty when none found
  /// (script-based devices 21/22).
  std::string device_cloud_executable;
  /// Reconstructed (non-LAN) messages in delivery-callsite order.
  std::vector<ReconstructedMessage> messages;
  int discarded_lan = 0;
  /// Keep/drop record per built MFT, in delivery-callsite order — why each
  /// candidate message survived (or fell to) the §IV-D LAN filter.
  std::vector<MftDecision> mft_decisions;
  std::vector<FlawReport> flaws;
  /// Value-flow visibility over the device-cloud programs: how many CallInd
  /// sites exist and how many folded to a concrete callee (devirtualized).
  int indirect_calls_total = 0;
  int indirect_calls_resolved = 0;
  /// Taint-walk terminations without a source, summed over all reconstructed
  /// messages (§V-C; per-message counts live on ReconstructedMessage).
  int opaque_terminations = 0;
  int param_terminations = 0;
  int memory_terminations = 0;
  /// Memory def-use visibility over the device-cloud programs
  /// (docs/POINTSTO.md): points-to load/store resolution totals, summed
  /// like the valueflow counters above — the report's `memory_flow` block.
  struct MemoryFlowStats {
    std::uint64_t loads_total = 0;
    std::uint64_t loads_resolved = 0;
    std::uint64_t loads_with_stores = 0;
    std::uint64_t stores_total = 0;
    std::uint64_t stores_never_loaded = 0;
  };
  MemoryFlowStats memory_flow;
  /// Per-device work metrics (docs/OBSERVABILITY.md): dotted name → count,
  /// in a fixed emission order. Derived from what was analyzed, never from
  /// how long it took, so the block is byte-identical at any --jobs level
  /// and stays in the report even when timings are omitted.
  std::vector<std::pair<std::string, std::uint64_t>> metrics;
  /// Per-image component inventory (docs/COMPONENTS.md): known libraries
  /// the registry matched across all executables. Empty without a registry.
  std::vector<analysis::components::ComponentHit> components;
  PhaseTimings timings;
};

class Pipeline {
 public:
  struct Options {
    ExecutableIdentifier::Options identifier;
    MftBuilder::Options taint;
    /// Run the IR verifier over every executable before Phase 1 and throw
    /// analysis::verify::VerifyError when one has lint errors. Under
    /// CorpusRunner the exception isolates the device (a DeviceFailure)
    /// instead of aborting the run.
    bool lint_gate = false;
    /// Build the points-to memory def-use index per device-cloud program
    /// and thread it through ValueFlow and the taint walks
    /// (docs/POINTSTO.md). On by default; off reproduces the legacy
    /// walk that terminates at every Load — kept for A/B gates.
    bool pointsto = true;
    /// Optional incremental analysis cache (not owned; must outlive the
    /// pipeline). When set, §IV-A verdicts and per-program/per-function
    /// Phase 2-4 artifacts are looked up by content hash before being
    /// recomputed, and fresh results are stored back. The cached and cold
    /// paths produce byte-identical reports and event logs
    /// (docs/CACHING.md); only the cache.* metrics and timings differ.
    AnalysisCache* cache = nullptr;
    /// Optional component registry (not owned; must outlive the pipeline).
    /// When set, every executable is fingerprint-matched against it before
    /// Phase 1: matches fill DeviceAnalysis.components, certified matches
    /// substitute their precomputed value-flow environments for live
    /// solves, and taint provenance crossing matched functions is tagged
    /// (docs/COMPONENTS.md). Everything except the new components /
    /// registry_components report blocks is byte-identical to a
    /// registry-less run.
    const analysis::components::LibraryRegistry* registry = nullptr;
  };

  /// `model` must outlive the pipeline.
  explicit Pipeline(const SemanticsModel& model)
      : model_(model), options_() {}
  Pipeline(const SemanticsModel& model, Options options)
      : model_(model), options_(options) {}

  /// Analyze one image. With a `pool`, the lint gate and each
  /// executable's points-to and value-flow solves parallelize their
  /// per-function work on it. The solves are identical by construction, so
  /// the analysis is bit-identical to the sequential path (timings aside).
  DeviceAnalysis analyze(const fw::FirmwareImage& image,
                         support::ThreadPool* pool = nullptr) const;

 private:
  const SemanticsModel& model_;
  Options options_;
};

}  // namespace firmres::core
