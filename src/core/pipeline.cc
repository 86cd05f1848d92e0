#include "core/pipeline.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "analysis/pointsto/pointsto.h"
#include "analysis/valueflow/valueflow.h"
#include "analysis/verify/verifier.h"
#include "core/analysis_cache.h"
#include "core/taint.h"
#include "ir/library.h"
#include "support/hash.h"
#include "support/logging.h"
#include "support/observability/events.h"
#include "support/observability/metrics.h"
#include "support/observability/trace.h"
#include "support/strings.h"
#include "support/timing.h"

namespace firmres::core {

namespace {

namespace metrics = support::metrics;

// Per-phase latency histograms (microseconds), one per kPhases entry —
// what bench_perf_phases reads back for its phase-split summary.
// Runtime-kind: excluded from the deterministic metrics dump.
template <std::size_t... I>
std::array<metrics::Histogram, sizeof...(I)> phase_histograms(
    std::index_sequence<I...>) {
  return {metrics::Histogram(kPhases[I].histogram, metrics::Kind::Runtime)...};
}
std::array<metrics::Histogram, std::size(kPhases)> g_phase_us =
    phase_histograms(std::make_index_sequence<std::size(kPhases)>());

// Work-kind corpus totals: deterministic at any jobs level.
metrics::Counter g_devices_analyzed("pipeline.devices_analyzed",
                                    metrics::Kind::Work);
metrics::Counter g_messages("pipeline.messages_reconstructed",
                            metrics::Kind::Work);
metrics::Counter g_lan_discarded("pipeline.lan_discarded",
                                 metrics::Kind::Work);
metrics::Counter g_flaw_alarms("pipeline.flaw_alarms", metrics::Kind::Work);
metrics::Histogram g_mft_nodes("taint.mft_nodes", metrics::Kind::Work);
metrics::Histogram g_mft_leaves("taint.mft_leaves", metrics::Kind::Work);

std::uint64_t to_us(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e6);
}

/// Accumulates the analyzing thread's CPU time into a PhaseTimings slot.
class CpuTimer {
 public:
  explicit CpuTimer(double& slot)
      : slot_(slot), start_(support::thread_cpu_seconds()) {}
  ~CpuTimer() { slot_ += support::thread_cpu_seconds() - start_; }
  CpuTimer(const CpuTimer&) = delete;
  CpuTimer& operator=(const CpuTimer&) = delete;

 private:
  double& slot_;
  double start_;
};

namespace events = support::events;

/// Decision events for one reconstructed message (no-ops while the event
/// log is disabled): per-field taint termination, §IV-C format split, and
/// classifier verdict — the same records the report's provenance block
/// serializes, in event form for --events-out consumers.
void emit_message_events(int device_id, const ReconstructedMessage& msg) {
  if (!events::enabled()) return;
  const std::string message_key = support::format(
      "0x%llx", static_cast<unsigned long long>(msg.delivery_address));
  for (const ReconstructedField& f : msg.fields) {
    const FieldProvenance& prov = f.provenance;
    const std::string field_key =
        f.key.empty() ? "leaf:" + std::to_string(f.leaf_id) : f.key;
    {
      events::Event e;
      e.category = "taint";
      e.device_id = device_id;
      e.message_key = message_key;
      e.field_key = field_key;
      e.text = "taint walk terminated: " + prov.termination;
      e.attrs = {{"functions", support::join(prov.visited_functions, ">")},
                 {"devirt_crossings",
                  std::to_string(prov.devirt_crossings)},
                 {"callsite_crossings",
                  std::to_string(prov.callsite_crossings)}};
      events::emit(std::move(e));
    }
    if (prov.split_pieces > 0) {
      events::Event e;
      e.category = "slices";
      e.device_id = device_id;
      e.message_key = message_key;
      e.field_key = field_key;
      e.text = "format split: piece \"" + prov.format_piece + "\"";
      e.attrs = {{"delimiter", prov.split_delimiter},
                 {"pieces", std::to_string(prov.split_pieces)},
                 {"score", support::format("%.4f", prov.split_score)}};
      events::emit(std::move(e));
    }
    {
      events::Event e;
      e.category = "semantics";
      e.device_id = device_id;
      e.message_key = message_key;
      e.field_key = field_key;
      e.text = "classified " + std::string(fw::primitive_name(f.semantics));
      e.attrs = {{"model", prov.model},
                 {"margin", support::format("%.4f", prov.margin)}};
      events::emit(std::move(e));
    }
  }
}

void emit_decision_event(int device_id, const MftDecision& decision) {
  if (!events::enabled()) return;
  events::Event e;
  e.severity =
      decision.kept ? events::Severity::Info : events::Severity::Warn;
  e.category = "concat";
  e.device_id = device_id;
  e.message_key = support::format(
      "0x%llx", static_cast<unsigned long long>(decision.delivery_address));
  e.text = decision.kept ? "MFT kept: " + decision.reason
                         : "MFT dropped: " + decision.reason;
  e.attrs = {{"delivery_callee", decision.delivery_callee}};
  events::emit(std::move(e));
}

/// Fold-provenance event for one devirtualized CallInd site. Byte-for-byte
/// the record the cold path emits, whether the site came from a live
/// ValueFlow solve or a rehydrated cache entry.
void emit_devirt_event(int device_id,
                       const CachedProgramAnalysis::DevirtSite& site) {
  events::Event e;
  e.category = "valueflow";
  e.device_id = device_id;
  e.text = "devirtualized CALLIND " + site.caller + " -> " + site.target;
  e.attrs = {{"address",
              support::format("0x%llx",
                              static_cast<unsigned long long>(site.address))},
             {"round", std::to_string(site.round)}};
  events::emit(std::move(e));
}

/// Hash of a function's resolved-caller set. The §IV-B walk ascends from a
/// parameter through *every* callsite of the containing function, so a new
/// caller appearing anywhere in the program changes the walk even though no
/// visited function's own IR did — this hash is the cache dep that catches
/// that.
std::uint64_t callers_hash(const analysis::CallGraph& cg,
                           const std::string& fn_name) {
  support::Hasher h(0x63616c6c5f763031ULL);  // "call_v01"
  const std::vector<analysis::CallSite> sites =
      cg.resolved_callsites_of(fn_name);
  h.u64(sites.size());
  for (const analysis::CallSite& s : sites)
    h.str(s.caller->name()).u64(s.op->address).u64(s.arg_offset);
  return h.digest();
}

using Substitutions =
    std::map<const ir::Function*, analysis::ValueFlow::Substitution>;

/// One executable's analysis context, shared by §IV-A and §IV-B: the
/// points-to memory def-use index (when enabled), the value-flow solution
/// over it and the registry substitutions, and the call graph that solution
/// devirtualizes. Built once per program.
struct ProgramContext {
  ProgramContext(const ir::Program& program, bool with_pointsto,
                 const Substitutions* substitutions, support::ThreadPool* pool)
      : pointsto(with_pointsto
                     ? std::make_unique<analysis::pointsto::PointsTo>(program,
                                                                      pool)
                     : nullptr),
        valueflow(program, pool,
                  {.substitutions = substitutions, .pointsto = pointsto.get()}),
        call_graph(program, valueflow) {}

  std::unique_ptr<analysis::pointsto::PointsTo> pointsto;
  analysis::ValueFlow valueflow;
  analysis::CallGraph call_graph;
};

}  // namespace

DeviceAnalysis Pipeline::analyze(const fw::FirmwareImage& image,
                                 support::ThreadPool* pool) const {
  DeviceAnalysis out;
  out.device_id = image.profile.id;
  // Outside the span: a thread-CPU clock read is a system call, and on a
  // loaded host it can stall for milliseconds that no phase would bill.
  const CpuTimer cpu_timer(out.timings.cpu_total_s);
  FIRMRES_SPAN_DEVICE("pipeline.analyze", "pipeline", image.profile.id);

  // --- Phase 0 (opt-in): reject malformed programs up front ----------------
  // A lint error deep in one executable would otherwise surface as a
  // FIRMRES_CHECK abort inside some analysis with no indication of which
  // function or op is broken.
  if (options_.lint_gate) {
    const analysis::verify::Verifier verifier;
    std::string failures;
    for (const fw::FirmwareFile& file : image.files) {
      if (file.kind != fw::FirmwareFile::Kind::Executable ||
          file.program == nullptr)
        continue;
      const analysis::verify::LintReport report =
          verifier.run(*file.program, pool);
      if (report.errors() == 0) continue;
      if (!failures.empty()) failures += "; ";
      failures += file.path + ": " + analysis::verify::gate_message(report);
    }
    if (!failures.empty()) throw analysis::verify::VerifyError(failures);
  }

  // --- Component registry matching (docs/COMPONENTS.md) --------------------
  // Sequential, file order, so the inventory and "components" events are
  // deterministic at any jobs level. The products feed the later phases:
  // certified substitutions skip per-function value-flow solves in each
  // executable's context solve, branchless certification pins P_f
  // contributions in Phase 1, and the matched-function labels tag taint
  // provenance post-hoc — none of which changes any pre-existing report
  // byte.
  Substitutions registry_subs;
  std::set<const ir::Function*> registry_branchless;
  std::map<std::string, std::string> component_labels;  ///< fn name → label
  if (options_.registry != nullptr) {
    FIRMRES_SPAN_DEVICE("phase.components", "pipeline", image.profile.id,
                        &out.timings.pinpoint_s);
    const analysis::components::LibraryRegistry& registry =
        *options_.registry;
    std::vector<analysis::components::MatchResult> results;
    for (const fw::FirmwareFile& file : image.files) {
      if (file.kind != fw::FirmwareFile::Kind::Executable ||
          file.program == nullptr)
        continue;
      results.push_back(
          analysis::components::match_program(*file.program, registry));
    }
    std::vector<const analysis::components::MatchResult*> views;
    for (const analysis::components::MatchResult& r : results)
      views.push_back(&r);
    out.components =
        analysis::components::component_inventory(registry, views);
    for (const analysis::components::MatchResult& r : results) {
      registry_subs.insert(r.substitutions.begin(), r.substitutions.end());
      registry_branchless.insert(r.branchless.begin(), r.branchless.end());
      for (const analysis::components::FunctionMatch& m : r.matches) {
        std::string label = m.registry_function + " [";
        for (std::size_t k = 0; k < m.refs.size(); ++k) {
          const analysis::components::RegistryLibrary& lib =
              registry.libraries()[m.refs[k].library];
          if (k > 0) label += ", ";
          label += lib.name + " " + lib.version;
        }
        label += "]";
        const auto [it, inserted] =
            component_labels.emplace(m.fn->name(), std::move(label));
        if (events::enabled()) {
          events::Event e;
          e.category = "components";
          e.device_id = out.device_id;
          e.text = "registry match: " + m.fn->name() + " -> " + it->second;
          e.attrs = {{"fingerprint",
                      support::format("%016llx",
                                      static_cast<unsigned long long>(
                                          m.fingerprint))},
                     {"substitutable", m.substitutable ? "yes" : "no"}};
          if (!m.detail.empty()) e.attrs.push_back({"detail", m.detail});
          events::emit(std::move(e));
        }
      }
    }
    if (events::enabled()) {
      for (const analysis::components::ComponentHit& hit : out.components) {
        events::Event e;
        e.severity =
            hit.risky ? events::Severity::Warn : events::Severity::Info;
        e.category = "components";
        e.device_id = out.device_id;
        e.text = support::format(
            "component identified: %s %s (%zu/%zu functions)",
            hit.name.c_str(), hit.version.c_str(), hit.matched_functions,
            hit.total_functions);
        e.attrs = {{"risky", hit.risky ? "yes" : "no"},
                   {"version_ambiguous",
                    hit.version_ambiguous ? "yes" : "no"}};
        if (hit.risky) e.attrs.push_back({"risk_note", hit.risk_note});
        events::emit(std::move(e));
      }
    }
  }

  // --- Phase 1: pinpoint device-cloud executables (§IV-A) ------------------
  // Each executable's analysis context is solved here, on `pool` when one is
  // given, and a device-cloud program's context carries into Phase 2.
  AnalysisCache* cache = options_.cache;
  const auto make_context = [&](const ir::Program& program) {
    return std::make_unique<ProgramContext>(
        program, options_.pointsto,
        options_.registry != nullptr ? &registry_subs : nullptr, pool);
  };
  std::vector<const ir::Program*> device_cloud;
  std::vector<std::uint64_t> program_hashes;  ///< parallel; cache path only
  /// Parallel to device_cloud; null when the verdict came from the cache.
  std::vector<std::unique_ptr<ProgramContext>> contexts;
  std::uint64_t executables_scanned = 0;
  {
    FIRMRES_SPAN_DEVICE("phase.pinpoint", "pipeline", image.profile.id,
                        &out.timings.pinpoint_s);
    // Registry products thread into the §IV-A solves; they change no
    // verdict (substitution is byte-identical), so ident cache keys need
    // not cover them. Points-to does shape the solve, so they cover it.
    ExecutableIdentifier::Options ident_options = options_.identifier;
    if (options_.registry != nullptr)
      ident_options.registry_branchless = &registry_branchless;
    const ExecutableIdentifier identifier(ident_options);
    std::uint64_t ident_salt = 0;
    if (cache != nullptr) {
      support::Hasher h(0x6964656e745f7632ULL);  // "ident_v2"
      h.f64(options_.identifier.pf_threshold)
          .boolean(options_.identifier.require_async)
          .boolean(options_.identifier.use_pf_scoring)
          .boolean(options_.pointsto);
      ident_salt = h.digest();
    }
    for (const fw::FirmwareFile& file : image.files) {
      if (file.kind != fw::FirmwareFile::Kind::Executable ||
          file.program == nullptr)
        continue;
      ++executables_scanned;
      std::uint64_t program_hash = 0;
      std::uint64_t ident_key = 0;
      std::optional<bool> is_device_cloud;
      if (cache != nullptr) {
        program_hash = AnalysisCache::hash_program_ir(*file.program);
        ident_key = support::Hasher(0x6964656e742e6b79ULL)
                        .u64(ident_salt)
                        .u64(program_hash)
                        .digest();
        is_device_cloud = cache->lookup_ident(ident_key);
      }
      std::unique_ptr<ProgramContext> context;
      if (!is_device_cloud.has_value()) {
        context = make_context(*file.program);
        is_device_cloud = identifier.analyze(*file.program, context->call_graph)
                              .is_device_cloud;
        if (cache != nullptr) cache->store_ident(ident_key, *is_device_cloud);
      }
      if (*is_device_cloud) {
        device_cloud.push_back(file.program.get());
        program_hashes.push_back(program_hash);
        contexts.push_back(std::move(context));
        if (out.device_cloud_executable.empty())
          out.device_cloud_executable = file.path;
      }
    }
    if (device_cloud.empty())
      FIRMRES_LOG(Info) << "device " << image.profile.id
                        << ": no device-cloud executable identified";
  }
  // Fills the per-device metrics block (fixed emission order — the report
  // is byte-compared across job counts) and feeds the corpus-level
  // registry. Called on every exit path.
  std::uint64_t mft_count = 0, mft_nodes = 0, mft_leaves = 0;
  const auto finalize = [&] {
    out.metrics = {
        {"pinpoint.executables_scanned", executables_scanned},
        {"pinpoint.device_cloud_programs", device_cloud.size()},
        {"taint.mft_count", mft_count},
        {"taint.mft_nodes", mft_nodes},
        {"taint.mft_leaves", mft_leaves},
        {"valueflow.indirect_total",
         static_cast<std::uint64_t>(out.indirect_calls_total)},
        {"valueflow.indirect_resolved",
         static_cast<std::uint64_t>(out.indirect_calls_resolved)},
        {"semantics.messages_reconstructed", out.messages.size()},
        {"concat.lan_discarded",
         static_cast<std::uint64_t>(out.discarded_lan)},
        {"check.flaw_alarms", out.flaws.size()},
    };
    g_devices_analyzed.add();
    g_messages.add(out.messages.size());
    g_lan_discarded.add(static_cast<std::uint64_t>(out.discarded_lan));
    g_flaw_alarms.add(out.flaws.size());
    for (std::size_t i = 0; i < std::size(kPhases); ++i)
      g_phase_us[i].observe(to_us(out.timings.*kPhases[i].slot));
  };

  if (device_cloud.empty()) {
    finalize();
    return out;
  }

  // Everything besides the IR that shapes the Phase 2-4 product: taint
  // budgets, the classifier identity, and the executable path embedded in
  // every reconstructed message.
  std::uint64_t analysis_salt = 0;
  if (cache != nullptr) {
    support::Hasher h(0x616e616c5f763031ULL);  // "anal_v01"
    h.u64(static_cast<std::uint64_t>(options_.taint.max_depth))
        .u64(options_.taint.max_nodes)
        .u64(static_cast<std::uint64_t>(options_.taint.max_callsites))
        .boolean(options_.pointsto)
        .str(model_.name())
        .str(out.device_cloud_executable);
    analysis_salt = h.digest();
  }

  // --- Phase 2: message-field identification via backward taint (§IV-B) ----
  // The taint walks run over the program's Phase-1 context: its value-flow
  // solution devirtualizes CallInd edges for the walks and stays alive
  // through Phases 3/4 so slice generation can recover non-literal format
  // operands.
  //
  // With a cache, each program first tries its program-tier entry (a hit
  // skips taint and reconstruction outright); on a miss each
  // delivery-bearing *function* tries its fn-tier entry, validated against
  // the live solve through the recorded deps. A miss after an ident-tier
  // hit has no Phase-1 context, so it builds one here.
  struct FnGroup {
    const ir::Function* fn = nullptr;
    std::uint64_t key = 0;
    bool from_cache = false;
    std::vector<CachedMessage> cached;  ///< hit: fn's messages, site order
    std::set<std::string> dep_names;    ///< miss: visited-function union
    std::vector<CachedFunctionEntry::Dep> deps;   ///< miss: recorded deps
    std::vector<CachedMessage> fresh;   ///< miss: filled in Phases 3+4
  };
  struct SiteOutcome {
    /// fn-tier hit; for a fresh `mft`, its MFT size until Phases 3+4
    /// fill in the rest.
    std::optional<CachedMessage> ready;
    std::optional<Mft> mft;              ///< needs reconstruction
    int group = -1;                      ///< FnGroup index (cache path only)
  };
  struct ProgramWork {
    std::unique_ptr<ProgramContext> context;  ///< null on a program-tier hit
    std::optional<CachedProgramAnalysis> cached;  ///< program-tier hit
    std::vector<SiteOutcome> sites;
    std::vector<FnGroup> groups;
    std::uint64_t program_key = 0;
    CachedProgramAnalysis fresh;  ///< stats/devirt now, messages in 3+4
  };
  std::vector<ProgramWork> per_program(device_cloud.size());
  {
    FIRMRES_SPAN_DEVICE("phase.fields", "pipeline", image.profile.id,
                        &out.timings.fields_s);
    for (std::size_t i = 0; i < device_cloud.size(); ++i) {
      const ir::Program& program = *device_cloud[i];
      ProgramWork& work = per_program[i];
      if (cache != nullptr) {
        work.program_key = support::Hasher(0x70726f672e6b6579ULL)
                               .u64(analysis_salt)
                               .u64(program_hashes[i])
                               .digest();
        std::optional<CachedProgramAnalysis> hit =
            cache->lookup_program(work.program_key);
        if (hit.has_value()) {
          work.cached = std::move(*hit);
          contexts[i].reset();
          continue;
        }
      }
      work.context = contexts[i] != nullptr ? std::move(contexts[i])
                                            : make_context(program);
      const analysis::pointsto::PointsTo* pt = work.context->pointsto.get();
      const analysis::ValueFlow& vf = work.context->valueflow;
      const analysis::CallGraph& cg = work.context->call_graph;
      const MftBuilder builder(program, cg, options_.taint, pt);

      const analysis::ValueFlow::Stats stats = vf.stats();
      work.fresh.indirect_total = stats.indirect_total;
      work.fresh.indirect_resolved = stats.indirect_resolved;
      if (pt != nullptr) {
        const analysis::pointsto::PointsTo::Stats pt_stats = pt->stats();
        work.fresh.pt_loads_total = pt_stats.loads_total;
        work.fresh.pt_loads_resolved = pt_stats.loads_resolved;
        work.fresh.pt_loads_with_stores = pt_stats.loads_with_stores;
        work.fresh.pt_stores_total = pt_stats.stores_total;
        work.fresh.pt_stores_never_loaded = pt_stats.stores_never_loaded;
      }
      for (const analysis::ValueFlow::IndirectSite& site :
           vf.indirect_sites()) {
        if (site.target == nullptr) continue;
        work.fresh.devirt_sites.push_back(CachedProgramAnalysis::DevirtSite{
            site.caller->name(), site.target->name(), site.op->address,
            site.resolved_round});
      }

      // Delivery-callsite enumeration, exactly as MftBuilder::build_all
      // (callsite address order).
      std::vector<analysis::CallSite> sites;
      for (const std::string& name :
           ir::LibraryModel::instance().names_of_kind(ir::LibKind::MsgDeliver))
        for (const analysis::CallSite& site : cg.callsites_of(name))
          sites.push_back(site);
      std::sort(sites.begin(), sites.end(),
                [](const analysis::CallSite& a, const analysis::CallSite& b) {
                  return a.op->address < b.op->address;
                });

      if (cache == nullptr) {
        for (const analysis::CallSite& site : sites) {
          SiteOutcome s;
          s.mft = builder.build(site);
          work.sites.push_back(std::move(s));
        }
        continue;
      }

      const std::uint64_t fn_salt =
          support::Hasher(0x666e2e73616c7431ULL)
              .u64(analysis_salt)
              .u64(AnalysisCache::hash_data_segment(program))
              .digest();
      // Group the sites by containing function. A function's sites form the
      // same subsequence in global (address) order and in its fn entry, so
      // rehydration is a per-group cursor.
      std::map<const ir::Function*, int> group_of;
      std::vector<int> site_group;
      for (const analysis::CallSite& site : sites) {
        const auto [it, inserted] = group_of.try_emplace(
            site.caller, static_cast<int>(work.groups.size()));
        if (inserted) {
          FnGroup g;
          g.fn = site.caller;
          g.key = support::Hasher(0x666e2e6b65793031ULL)
                      .u64(fn_salt)
                      .u64(AnalysisCache::hash_function_ir(*site.caller))
                      .digest();
          work.groups.push_back(std::move(g));
        }
        site_group.push_back(it->second);
      }
      std::vector<std::size_t> group_sites(work.groups.size(), 0);
      for (const int g : site_group) ++group_sites[static_cast<std::size_t>(g)];

      const auto dep_ok = [&](const CachedFunctionEntry::Dep& dep) {
        const ir::Function* dep_fn = program.function(dep.fn);
        if (dep_fn == nullptr) return false;
        if (AnalysisCache::hash_function_ir(*dep_fn) != dep.ir_hash)
          return false;
        if (vf.function_signature(dep_fn) != dep.vf_sig) return false;
        if (callers_hash(cg, dep.fn) != dep.callers_hash) return false;
        if ((pt != nullptr ? pt->function_signature(dep_fn) : 0) !=
            dep.pt_sig)
          return false;
        return true;
      };
      for (std::size_t g = 0; g < work.groups.size(); ++g) {
        FnGroup& group = work.groups[g];
        std::optional<CachedFunctionEntry> entry =
            cache->lookup_function(group.key, dep_ok);
        // The site count is derived from the function's own IR (part of the
        // key), so a shape mismatch only means a foreign entry — rebuild.
        if (entry.has_value() && entry->messages.size() == group_sites[g]) {
          group.from_cache = true;
          group.cached = std::move(entry->messages);
        }
      }

      std::vector<std::size_t> consumed(work.groups.size(), 0);
      for (std::size_t si = 0; si < sites.size(); ++si) {
        const std::size_t g = static_cast<std::size_t>(site_group[si]);
        FnGroup& group = work.groups[g];
        SiteOutcome s;
        s.group = static_cast<int>(g);
        if (group.from_cache) {
          s.ready = group.cached[consumed[g]++];
        } else {
          s.mft = builder.build(sites[si]);
          // The walk's visited functions are the true dynamic dependency
          // set of this fn's artifacts.
          group.dep_names.insert(group.fn->name());
          for (const TaintProvenance& p : s.mft->provenance)
            group.dep_names.insert(p.visited_functions.begin(),
                                   p.visited_functions.end());
        }
        work.sites.push_back(std::move(s));
      }
      // Record validation hashes for every dep while the solve is alive.
      for (FnGroup& group : work.groups) {
        if (group.from_cache) continue;
        for (const std::string& name : group.dep_names) {
          const ir::Function* dep_fn = program.function(name);
          if (dep_fn == nullptr) continue;
          group.deps.push_back(CachedFunctionEntry::Dep{
              name, AnalysisCache::hash_function_ir(*dep_fn),
              vf.function_signature(dep_fn), callers_hash(cg, name),
              pt != nullptr ? pt->function_signature(dep_fn) : 0});
        }
      }
    }
    for (ProgramWork& work : per_program) {
      const CachedProgramAnalysis* summary =
          work.cached.has_value() ? &*work.cached : &work.fresh;
      out.indirect_calls_total += static_cast<int>(summary->indirect_total);
      out.indirect_calls_resolved +=
          static_cast<int>(summary->indirect_resolved);
      out.memory_flow.loads_total += summary->pt_loads_total;
      out.memory_flow.loads_resolved += summary->pt_loads_resolved;
      out.memory_flow.loads_with_stores += summary->pt_loads_with_stores;
      out.memory_flow.stores_total += summary->pt_stores_total;
      out.memory_flow.stores_never_loaded += summary->pt_stores_never_loaded;
      if (events::enabled()) {
        // Fold provenance for every devirtualized site the taint walks and
        // the call graph will rely on.
        for (const CachedProgramAnalysis::DevirtSite& site :
             summary->devirt_sites)
          emit_devirt_event(out.device_id, site);
      }
      const auto observe_mft = [&](std::uint64_t nodes, std::uint64_t leaves) {
        ++mft_count;
        mft_nodes += nodes;
        mft_leaves += leaves;
        g_mft_nodes.observe(nodes);
        g_mft_leaves.observe(leaves);
      };
      if (work.cached.has_value()) {
        for (const CachedMessage& m : work.cached->messages)
          observe_mft(m.mft_nodes, m.mft_leaves);
        continue;
      }
      for (SiteOutcome& s : work.sites) {
        if (s.mft.has_value()) {
          const Mft::Counts counts = s.mft->count();
          s.ready.emplace();
          s.ready->mft_nodes = counts.nodes;
          s.ready->mft_leaves = counts.leaves;
        }
        observe_mft(s.ready->mft_nodes, s.ready->mft_leaves);
      }
    }
  }

  // --- Phases 3+4: semantics recovery & field concatenation (§IV-C/D) ------
  // Reconstructor::reconstruct_one bills its §IV-C slice/split/classify to
  // semantics_s and its §IV-D group/order/format to concat_s. Delivery into
  // the analysis is billed to concat_s too, the cache stores to
  // cache_store_s.
  {
    FIRMRES_SPAN_DEVICE("phase.reconstruct", "pipeline", image.profile.id);
    const Reconstructor reconstructor(model_);
    // One delivery callsite's outcome enters the analysis — identically
    // whether it was just reconstructed or rehydrated from the store. Its
    // message moves into the analysis; a caller that still stores the
    // outcome delivers a copy.
    const auto deliver = [&](CachedMessage&& m) {
      emit_decision_event(out.device_id, m.decision);
      out.mft_decisions.push_back(std::move(m.decision));
      if (m.message.has_value()) {
        out.opaque_terminations += m.message->opaque_terminations;
        out.param_terminations += m.message->param_terminations;
        out.memory_terminations += m.message->memory_terminations;
        emit_message_events(out.device_id, *m.message);
        out.messages.push_back(std::move(*m.message));
      } else {
        ++out.discarded_lan;
      }
    };
    for (ProgramWork& work : per_program) {
      const bool fresh = !work.cached.has_value();
      for (SiteOutcome& s : work.sites) {  // empty on a program-tier hit
        CachedMessage& m =
            work.fresh.messages.emplace_back(*std::move(s.ready));
        if (!s.mft.has_value()) continue;  // fn-tier hit
        m.fn = s.mft->delivery_fn->name();
        m.message = reconstructor.reconstruct_one(
            *s.mft, out.device_cloud_executable, &work.context->valueflow,
            &m.decision, &out.timings);
      }
      {
        FIRMRES_SPAN_DEVICE("reconstruct.deliver", "reconstruct",
                            image.profile.id, &out.timings.concat_s);
        for (CachedMessage& m :
             fresh ? work.fresh.messages : work.cached->messages)
          deliver(fresh && cache != nullptr ? CachedMessage(m) : std::move(m));
      }
      if (fresh && cache != nullptr) {
        FIRMRES_SPAN_DEVICE("cache.store", "cache", image.profile.id,
                            &out.timings.cache_store_s);
        for (std::size_t i = 0; i < work.sites.size(); ++i) {
          const SiteOutcome& s = work.sites[i];
          if (s.mft.has_value())  // its group missed the fn tier
            work.groups[static_cast<std::size_t>(s.group)].fresh.push_back(
                work.fresh.messages[i]);
        }
        for (FnGroup& group : work.groups) {
          if (group.from_cache) continue;
          CachedFunctionEntry entry;
          entry.fn = group.fn->name();
          entry.deps = group.deps;
          entry.messages = std::move(group.fresh);
          cache->store_function(group.key, entry);
        }
        cache->store_program(work.program_key, work.fresh);
      }
    }
  }

  // Post-hoc provenance tagging: fields whose taint walk crossed a
  // registry-matched function carry the component labels, so `firmres
  // explain` can say "resolved via registry match". Applied after the
  // cache stores above — cached artifacts never contain the tags — and to
  // out.messages regardless of which tier produced them, so warm, cold,
  // and fn-tier paths are tagged identically.
  if (!component_labels.empty()) {
    for (ReconstructedMessage& message : out.messages) {
      for (ReconstructedField& field : message.fields) {
        std::vector<std::string>& labels =
            field.provenance.registry_components;
        for (const std::string& fn : field.provenance.visited_functions) {
          const auto it = component_labels.find(fn);
          if (it != component_labels.end()) labels.push_back(it->second);
        }
        if (labels.empty()) continue;
        // visited_functions is walk order; report sorted and deduplicated.
        std::sort(labels.begin(), labels.end());
        labels.erase(std::unique(labels.begin(), labels.end()),
                     labels.end());
      }
    }
  }

  // --- Phase 5: message form check (§IV-E) ----------------------------------
  {
    FIRMRES_SPAN_DEVICE("phase.check", "pipeline", image.profile.id,
                        &out.timings.check_s);
    std::vector<std::string> files;
    for (const fw::FirmwareFile& f : image.files) files.push_back(f.path);
    out.flaws = FormChecker().check(out.messages, files);
  }
  finalize();
  return out;
}

}  // namespace firmres::core
