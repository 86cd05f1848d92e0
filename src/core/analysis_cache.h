// Content-addressed incremental analysis cache (docs/CACHING.md).
//
// Real triage workloads are dominated by firmware *updates*: most functions
// of the new image are byte-identical to the previous one, yet a cold
// `analyze` recomputes every per-function artifact from scratch. This store
// keys the expensive per-function and per-program analysis products —
// §IV-A device-cloud verdicts, ValueFlow facts, taint/MFT-derived
// reconstructed messages — by a content hash of the IR that produced them
// plus the Pipeline options in force, so an update only re-analyzes what
// changed.
//
// Three entry tiers, from coarse to fine:
//   * ident   — per executable: the §IV-A is_device_cloud verdict.
//   * program — per device-cloud program: the full Phase 2-4 product
//     (value-flow stats, devirtualized sites, ordered messages/decisions).
//     A hit skips ValueFlow, taint, and reconstruction entirely.
//   * fn      — per delivery-bearing function, used when the program tier
//     misses (the firmware-update case): that function's reconstructed
//     messages, guarded by a recorded dependency list.
//
// The analyses are interprocedural, so a per-function key over the
// function's own IR alone would be unsound. Instead each fn entry records
// the functions its taint walks visited (TaintProvenance) and, per
// dependency, three validation hashes: the dep's IR content, its ValueFlow
// signature, and its resolved-caller set. On lookup the pipeline recomputes
// those against the *current* program (ValueFlow is cheap relative to
// taint + reconstruction) and rejects the entry when any drifted — the same
// recorded-dependency discipline a build system's depfiles implement.
//
// Durability: one JSON file per entry under Options::dir, written
// atomically (unique temp + rename) so concurrent writers can share a
// directory; corrupt, truncated, version-skewed, or hash-mismatched files
// load as misses (counted in cache.load_errors), never as errors. Eviction
// is mtime-LRU over Options::max_entries: the cache counts its entries when
// it opens the directory, adds one per store, and scans the directory only
// when that count passes the cap.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/reconstructor.h"
#include "ir/program.h"
#include "support/json.h"

namespace firmres::core {

/// One delivery callsite's cached outcome: the §IV-D keep/drop decision,
/// the reconstructed message when kept, and the source MFT's size (needed
/// to reproduce the report's taint.mft_* metrics without rebuilding the
/// tree). `fn` is the containing (delivery-bearing) function.
struct CachedMessage {
  std::string fn;
  MftDecision decision;
  std::optional<ReconstructedMessage> message;
  std::uint64_t mft_nodes = 0;
  std::uint64_t mft_leaves = 0;
};

/// Phase 2-4 product of one device-cloud program, in the exact shape the
/// pipeline needs to rehydrate a warm run byte-identically: stats for the
/// report's valueflow block, devirtualized sites for --events-out
/// re-emission, and messages in delivery-callsite order.
struct CachedProgramAnalysis {
  std::uint64_t indirect_total = 0;
  std::uint64_t indirect_resolved = 0;
  /// Points-to memory def-use stats for the report's memory_flow block
  /// (docs/POINTSTO.md) — a program-tier hit skips the solve, so the
  /// numbers must rehydrate from here.
  std::uint64_t pt_loads_total = 0;
  std::uint64_t pt_loads_resolved = 0;
  std::uint64_t pt_loads_with_stores = 0;
  std::uint64_t pt_stores_total = 0;
  std::uint64_t pt_stores_never_loaded = 0;
  struct DevirtSite {
    std::string caller;
    std::string target;
    std::uint64_t address = 0;
    int round = 0;
  };
  std::vector<DevirtSite> devirt_sites;
  std::vector<CachedMessage> messages;
};

/// Per-function entry: one delivery-bearing function's messages plus the
/// recorded dependencies that gate their reuse.
struct CachedFunctionEntry {
  std::string fn;
  struct Dep {
    std::string fn;
    /// Content hash of the dep's IR (AnalysisCache::hash_function_ir).
    std::uint64_t ir_hash = 0;
    /// ValueFlow::function_signature of the dep in the current solve.
    std::uint64_t vf_sig = 0;
    /// Hash of the dep's resolved-caller set (taint ascends through
    /// callsites, so a *new caller elsewhere* invalidates this function's
    /// walks even though no dep's own IR changed).
    std::uint64_t callers_hash = 0;
    /// PointsTo::function_signature of the dep: a Store added *anywhere*
    /// can change what a Load in this function's walks resolves to, and
    /// the dep's signature covers exactly its observable load/store facts
    /// (docs/POINTSTO.md).
    std::uint64_t pt_sig = 0;
  };
  std::vector<Dep> deps;  ///< includes `fn` itself; name order
  std::vector<CachedMessage> messages;  ///< this fn's callsites, addr order
};

class AnalysisCache {
 public:
  struct Options {
    /// On-disk store directory; created on construction.
    std::string dir;
    /// mtime-LRU eviction cap (entry files, all tiers pooled).
    std::size_t max_entries = 4096;
    /// Emit per-lookup "cache" category events. Off by default: cache
    /// events describe *how this run executed*, not *what the firmware
    /// contains*, so they would break the warm-vs-cold event-log
    /// byte-identity the differential harness checks.
    bool emit_events = false;
  };

  /// Instance-local mirror of the cache.* registry counters, for tests
  /// that inspect one cache without resetting global metrics.
  struct Stats {
    std::uint64_t ident_hits = 0;
    std::uint64_t ident_misses = 0;
    std::uint64_t program_hits = 0;
    std::uint64_t program_misses = 0;
    std::uint64_t fn_hits = 0;
    std::uint64_t fn_misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
    std::uint64_t load_errors = 0;
    /// Directory scans made by eviction (no registry mirror: when a store
    /// crosses the cap depends on what the directory held at open, not on
    /// the corpus).
    std::uint64_t eviction_scans = 0;
  };

  explicit AnalysisCache(Options options);

  const Options& options() const { return options_; }

  // --- Content hashing ------------------------------------------------------
  /// Content hash of one function's IR: name, entry, params, block
  /// structure, and every op (address, opcode, operands, callee).
  static std::uint64_t hash_function_ir(const ir::Function& fn);
  /// Content hash of a whole program: name, data segment, all functions.
  static std::uint64_t hash_program_ir(const ir::Program& program);
  /// Content hash of the data segment alone (per-fn entries salt with this:
  /// Ram varnodes resolve through it, so its content is an input to every
  /// function's analysis).
  static std::uint64_t hash_data_segment(const ir::Program& program);

  // --- ident tier -----------------------------------------------------------
  std::optional<bool> lookup_ident(std::uint64_t key);
  void store_ident(std::uint64_t key, bool is_device_cloud);

  // --- program tier ---------------------------------------------------------
  std::optional<CachedProgramAnalysis> lookup_program(std::uint64_t key);
  void store_program(std::uint64_t key, const CachedProgramAnalysis& value);

  // --- fn tier --------------------------------------------------------------
  /// `dep_ok` revalidates one recorded dependency against the live program
  /// (typically: recompute ir/vf/caller hashes and compare). The entry is
  /// returned only when every dep validates; a rejected entry counts as a
  /// miss.
  std::optional<CachedFunctionEntry> lookup_function(
      std::uint64_t key,
      const std::function<bool(const CachedFunctionEntry::Dep&)>& dep_ok);
  void store_function(std::uint64_t key, const CachedFunctionEntry& value);

  /// Dependency lists of every fn-tier entry currently on disk, keyed by
  /// entry key. Lets the incrementality property test compute the expected
  /// invalidation set of a mutation without private access.
  std::vector<std::pair<std::uint64_t, CachedFunctionEntry>>
  function_entries();

  Stats stats() const;

 private:
  std::optional<support::Json> load_payload(const char* kind,
                                            std::uint64_t key);
  void store_payload(const char* kind, std::uint64_t key,
                     const support::Json& payload);
  void evict_locked();
  void note_lookup(const char* kind, std::uint64_t key, bool hit);

  Options options_;
  mutable std::mutex mu_;
  Stats stats_;
  /// Entry files as this instance counts them: taken at open, one more per
  /// store, reset by each eviction scan. Other writers sharing the
  /// directory are only seen by the next scan.
  std::size_t entries_ = 0;
};

}  // namespace firmres::core
