// Message reconstruction: concatenating identified fields (§IV-D).
//
// Groups field slices per MFT (path-hash matching), discards MFTs whose
// Address slices expose LAN destinations, simplifies + inverts the MFT to
// recover field order, infers the wire format, and emits the reconstructed
// device-cloud messages with semantic annotations attached — the testing
// cues the analyst forges messages from (§IV-E).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mft.h"
#include "core/semantics.h"
#include "core/slices.h"
#include "firmware/message_spec.h"

namespace firmres::core {

struct PhaseTimings;

/// How a reconstructed field's value is obtained on the device.
enum class FieldValueSource {
  Nvram,
  Config,
  Env,
  Frontend,
  DevInfo,
  StringConst,
  NumConst,
  FileRead,
  Derived,    ///< crypto-derived (hmac/md5 over another value)
  Opaque,     ///< time()/rand()/unresolved
};

const char* field_value_source_name(FieldValueSource s);

/// Root-to-leaf derivation record for one reconstructed field — the full
/// audit trail `firmres explain` renders (docs/PROVENANCE.md): how the
/// taint walk reached the leaf (§IV-B), how the format string was split
/// (§IV-C separation), and what the classifier scored (§IV-C semantics).
struct FieldProvenance {
  // §IV-B taint walk (from the Mft's TaintProvenance).
  std::vector<std::string> visited_functions;
  int devirt_crossings = 0;
  int callsite_crossings = 0;
  /// Load→reaching-Store hops resolved through the points-to memory
  /// def-use index (docs/POINTSTO.md).
  int memory_crossings = 0;
  int taint_depth = 0;
  std::string termination;
  /// Construction path root→leaf: "opcode" or "opcode:callee" per step.
  std::vector<std::string> construction_path;
  // §IV-C format-split decision (zeroed when no sprintf split applied).
  std::string format_piece;
  std::string split_delimiter;  ///< one-char string; empty when unsplit
  double split_score = 0.0;
  int split_pieces = 0;
  // §IV-C classifier decision.
  std::string model;
  std::vector<double> label_scores;  ///< primitive-enum order
  double margin = 0.0;
  /// Registry-matched library functions the taint walk crossed (labels like
  /// "vsdk_log_init [vendorsdk 1.4.2]", sorted): this field's derivation
  /// was partly resolved via registry match instead of live analysis
  /// (docs/COMPONENTS.md). Annotated post-hoc by the pipeline — never part
  /// of cached artifacts, so warm and cold runs stay byte-identical.
  std::vector<std::string> registry_components;
};

/// Why one MFT was kept as a message or dropped by the §IV-D LAN filter.
struct MftDecision {
  std::uint64_t delivery_address = 0;
  std::string delivery_callee;
  bool kept = true;
  /// "reconstructed" or "lan-address:<the offending constant>".
  std::string reason;
};

struct ReconstructedField {
  /// Recovered wire key (format piece / cJSON key); may be empty for
  /// concat-style assembly.
  std::string key;
  /// Model-recovered semantics.
  fw::Primitive semantics = fw::Primitive::None;
  FieldValueSource source = FieldValueSource::Opaque;
  /// NVRAM/config key, getter/crypto callee, file path, or constant value.
  std::string source_detail;
  /// For StringConst/NumConst: the hard-coded value itself.
  std::string const_value;
  /// The enriched code slice this field was classified from.
  std::string slice_text;
  int leaf_id = -1;
  bool hardcoded = false;  ///< value burned into the binary (§IV-E tracking)
  /// Full derivation record behind this field's key/semantics/source.
  FieldProvenance provenance;
};

struct ReconstructedMessage {
  std::string executable;
  std::uint64_t delivery_address = 0;
  std::string delivery_callee;
  /// Recovered request path or MQTT topic (empty when not evident).
  std::string endpoint_path;
  /// Recovered Address (host) — constant value or source detail; empty when
  /// "not directly evident in the firmware image" (§V-C).
  std::string host;
  fw::WireFormat format = fw::WireFormat::KeyValue;
  /// Fields in recovered concatenation order.
  std::vector<ReconstructedField> fields;
  /// Multi-conversion sprintf format strings seen while reconstructing this
  /// message (drives the Table II clustering-threshold statistics).
  std::vector<std::string> multi_field_formats;
  /// §V-C visibility: how many of this MFT's taint walks terminated without
  /// a source — at an opaque call result, or at a parameter/undefined value
  /// no callsite explains. High counts flag overtaint in the recovery.
  int opaque_terminations = 0;
  int param_terminations = 0;
  /// Loads whose cell the points-to index could not resolve to any store
  /// (docs/POINTSTO.md ⊥): the memory analogue of the counts above.
  int memory_terminations = 0;

  bool has_primitive(fw::Primitive p) const;
};

struct ReconstructionResult {
  std::vector<ReconstructedMessage> messages;
  /// MFTs discarded by the LAN-address filter.
  int discarded_lan = 0;
  /// Keep/drop decision per input MFT, in input order.
  std::vector<MftDecision> decisions;
};

class Reconstructor {
 public:
  explicit Reconstructor(const SemanticsModel& model) : model_(model) {}

  /// Reconstruct all messages of one program's MFTs. `valueflow` (optional,
  /// not owned) lets slice generation recover non-literal sprintf formats.
  ReconstructionResult reconstruct(
      const std::vector<Mft>& mfts, const std::string& executable,
      const analysis::ValueFlow* valueflow = nullptr) const;

  /// One MFT → one message (or nullopt when LAN-filtered). `decision`
  /// (optional, not owned) receives the keep/drop record; `timings`
  /// (optional, not owned) is billed the §IV-C part as semantics_s and the
  /// §IV-D part as concat_s.
  std::optional<ReconstructedMessage> reconstruct_one(
      const Mft& mft, const std::string& executable,
      const analysis::ValueFlow* valueflow = nullptr,
      MftDecision* decision = nullptr,
      PhaseTimings* timings = nullptr) const;

  /// §IV-D LAN predicate: 10.*, 172.16-31.*, 192.168.*, FE80-prefixed IPv6,
  /// multicast (224-239.*), broadcast.
  static bool is_lan_address(const std::string& text);

 private:
  const SemanticsModel& model_;
};

}  // namespace firmres::core
