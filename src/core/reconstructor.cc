#include "core/reconstructor.h"

#include <algorithm>
#include <optional>

#include "core/pipeline.h"
#include "ir/library.h"
#include "support/observability/trace.h"
#include "support/strings.h"

namespace firmres::core {

const char* field_value_source_name(FieldValueSource s) {
  switch (s) {
    case FieldValueSource::Nvram: return "nvram";
    case FieldValueSource::Config: return "config";
    case FieldValueSource::Env: return "env";
    case FieldValueSource::Frontend: return "frontend";
    case FieldValueSource::DevInfo: return "devinfo";
    case FieldValueSource::StringConst: return "string-const";
    case FieldValueSource::NumConst: return "num-const";
    case FieldValueSource::FileRead: return "file";
    case FieldValueSource::Derived: return "derived";
    case FieldValueSource::Opaque: return "opaque";
  }
  return "?";
}

bool ReconstructedMessage::has_primitive(fw::Primitive p) const {
  for (const ReconstructedField& f : fields)
    if (f.semantics == p) return true;
  return false;
}

namespace {

FieldValueSource source_of_leaf(const MftNode& leaf, const MftNode* parent) {
  switch (leaf.kind) {
    case MftNodeKind::LeafSource: {
      const ir::LibFunction* lib =
          ir::LibraryModel::instance().find(leaf.source_callee);
      if (lib == nullptr) return FieldValueSource::Opaque;
      switch (lib->kind) {
        case ir::LibKind::SourceNvram: return FieldValueSource::Nvram;
        case ir::LibKind::SourceConfig: return FieldValueSource::Config;
        case ir::LibKind::SourceEnv: return FieldValueSource::Env;
        case ir::LibKind::SourceFrontend: return FieldValueSource::Frontend;
        case ir::LibKind::SourceDevInfo: return FieldValueSource::DevInfo;
        default: return FieldValueSource::Opaque;
      }
    }
    case MftNodeKind::LeafString: {
      if (parent != nullptr && parent->op != nullptr &&
          parent->op->opcode == ir::OpCode::Call &&
          ir::LibraryModel::instance().is_kind(parent->op->callee,
                                               ir::LibKind::FileOp)) {
        return FieldValueSource::FileRead;
      }
      return FieldValueSource::StringConst;
    }
    case MftNodeKind::LeafConst:
      return FieldValueSource::NumConst;
    default:
      return FieldValueSource::Opaque;
  }
}

/// Is this field's value produced by a crypto derivation somewhere on its
/// path (Signature = f(Dev-Secret))?
bool derived_on_path(const std::vector<const MftNode*>& path) {
  for (const MftNode* node : path) {
    if (node->op != nullptr && node->op->opcode == ir::OpCode::Call &&
        ir::LibraryModel::instance().is_kind(node->op->callee,
                                             ir::LibKind::Crypto))
      return true;
  }
  return false;
}

/// DNS-name shape: dotted labels with an alphabetic TLD. Rejects firmware
/// version strings ("a01.04.05.…") and dotted quads.
bool looks_like_hostname(const std::string& s) {
  const auto labels = support::split(s, '.');
  if (labels.size() < 2) return false;
  for (const std::string& label : labels) {
    if (label.empty()) return false;
    for (const char c : label) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-')
        return false;
    }
  }
  const std::string& tld = labels.back();
  if (tld.size() < 2) return false;
  for (const char c : tld)
    if (!std::isalpha(static_cast<unsigned char>(c))) return false;
  return true;
}

/// Collect the ordered leaf ids of the simplified + inverted tree.
void ordered_leaf_ids(const MftNode& node, std::vector<int>& out) {
  if (node.is_leaf()) {
    out.push_back(node.leaf_id);
    return;
  }
  for (const auto& c : node.children) ordered_leaf_ids(*c, out);
}

/// Render one construction-path step for the provenance record.
std::string path_step(const MftNode& node) {
  if (node.op == nullptr) return mft_node_kind_name(node.kind);
  std::string step = ir::opcode_name(node.op->opcode);
  if (!node.op->callee.empty()) {
    step += ":";
    step += node.op->callee;
  }
  return step;
}

}  // namespace

bool Reconstructor::is_lan_address(const std::string& text) {
  return support::is_lan_address(text);
}

std::optional<ReconstructedMessage> Reconstructor::reconstruct_one(
    const Mft& mft, const std::string& executable,
    const analysis::ValueFlow* valueflow, MftDecision* decision,
    PhaseTimings* timings) const {
  if (decision != nullptr) {
    decision->delivery_address = mft.delivery_op->address;
    decision->delivery_callee = mft.delivery_callee;
    decision->kept = true;
    decision->reason = "reconstructed";
  }
  // §IV-C (slices, split, classify) bills semantics_s; re-emplacing the
  // span closes it and bills the §IV-D rest to concat_s.
  std::optional<support::trace::Span> phase;
  phase.emplace("reconstruct.semantics", "reconstruct", 0,
                timings != nullptr ? &timings->semantics_s : nullptr);
  SliceGenerator::Options slice_options;
  slice_options.valueflow = valueflow;
  const SliceGenerator slicer(mft, slice_options);
  const auto& slices = slicer.slices();

  // Leaf ids are dense per MFT (assigned at construction), so per-leaf
  // tables are vectors indexed by leaf_id.
  std::size_t leaf_ids = 0;
  for (const FieldSlice& s : slices)
    leaf_ids =
        std::max(leaf_ids, static_cast<std::size_t>(s.leaf->leaf_id) + 1);

  // --- semantics per slice -------------------------------------------------
  std::vector<std::optional<ScoredClassification>> scored(leaf_ids);
  for (const FieldSlice& s : slices) {
    if (s.role != LeafRole::Field) continue;
    scored[static_cast<std::size_t>(s.leaf->leaf_id)] =
        model_.classify_scored(s.slice_text);
  }
  phase.emplace("reconstruct.concat", "reconstruct", 0,
                timings != nullptr ? &timings->concat_s : nullptr);
  const auto label_of = [&scored](int leaf_id) {
    const auto& decision = scored[static_cast<std::size_t>(leaf_id)];
    return decision.has_value() ? decision->label : fw::Primitive::None;
  };

  // --- §IV-D field grouping + LAN filter -----------------------------------
  // The group is the MFT itself (slices were generated from its paths; path
  // hashes give each slice a stable identity). Any Address-classified slice
  // (or host-looking constant) naming a LAN destination kills the group.
  std::string host;
  std::string endpoint;
  for (const FieldSlice& s : slices) {
    const bool address_like =
        (s.role == LeafRole::Field &&
         label_of(s.leaf->leaf_id) == fw::Primitive::Address) ||
        s.role == LeafRole::PathConst;
    if (s.role == LeafRole::Field || address_like) {
      // Check string constants on Address slices for LAN IPs.
      if (s.leaf->kind == MftNodeKind::LeafString &&
          is_lan_address(s.leaf->detail)) {
        if (decision != nullptr) {
          decision->kept = false;
          decision->reason = "lan-address:" + s.leaf->detail;
        }
        return std::nullopt;
      }
    }
    if (s.role == LeafRole::PathConst && endpoint.empty()) {
      std::string text = s.leaf->detail;
      // Full URLs split into host + path.
      for (const char* scheme : {"https://", "http://"}) {
        if (text.rfind(scheme, 0) == 0) {
          text = text.substr(std::string(scheme).size());
          const auto slash = text.find('/');
          if (slash != std::string::npos) {
            if (host.empty()) host = text.substr(0, slash);
            text = text.substr(slash);
          }
          break;
        }
      }
      if (!text.empty() && (text[0] == '/' || text[0] == '?'))
        endpoint = text;
    }
    // Query-style assembly embeds the path in the format string itself.
    if (s.role == LeafRole::FormatString && endpoint.empty()) {
      const std::string prefix = SliceGenerator::path_prefix(s.leaf->detail);
      if (!prefix.empty()) endpoint = prefix;
    }
    if (host.empty() && s.role == LeafRole::Field &&
        label_of(s.leaf->leaf_id) == fw::Primitive::Address) {
      host = s.leaf->detail;
    }
    // Hard-coded endpoints: a hostname-shaped string constant names the
    // cloud even when the model misses the Address label.
    if (host.empty() && s.role == LeafRole::Field &&
        s.leaf->kind == MftNodeKind::LeafString &&
        looks_like_hostname(s.leaf->detail)) {
      host = s.leaf->detail;
    }
  }

  // --- format inference -----------------------------------------------------
  fw::WireFormat format = fw::WireFormat::KeyValue;
  bool saw_json = false, saw_query = false;
  for (const FieldSlice& s : slices) {
    if (s.role == LeafRole::JsonKey) saw_json = true;
    if (s.role == LeafRole::FormatString) {
      if (s.leaf->detail.find('{') != std::string::npos ||
          s.leaf->detail.find("\":") != std::string::npos)
        saw_json = true;
      else if (s.leaf->detail.find('=') != std::string::npos)
        saw_query = true;
    }
    if (s.role == LeafRole::PathConst &&
        s.leaf->detail.find('?') != std::string::npos)
      saw_query = true;
  }
  if (saw_json)
    format = fw::WireFormat::Json;
  else if (saw_query)
    format = fw::WireFormat::Query;

  // --- field ordering via simplify + invert ---------------------------------
  std::vector<int> order;
  for (const auto& root : mft.roots) {
    auto simplified = simplify(*root);
    invert(*simplified);
    ordered_leaf_ids(*simplified, order);
  }
  std::vector<int> rank(leaf_ids, 1 << 20);  // unordered leaves sort last
  for (std::size_t i = order.size(); i-- > 0;)  // the first position wins
    rank[static_cast<std::size_t>(order[i])] = static_cast<int>(i);

  std::vector<const FieldSlice*> field_slices;
  for (const FieldSlice& s : slices)
    if (s.role == LeafRole::Field) field_slices.push_back(&s);
  std::sort(field_slices.begin(), field_slices.end(),
            [&rank](const FieldSlice* a, const FieldSlice* b) {
              return rank[static_cast<std::size_t>(a->leaf->leaf_id)] <
                     rank[static_cast<std::size_t>(b->leaf->leaf_id)];
            });

  // --- assemble -------------------------------------------------------------
  ReconstructedMessage msg;
  msg.executable = executable;
  msg.delivery_address = mft.delivery_op->address;
  msg.delivery_callee = mft.delivery_callee;
  msg.endpoint_path = endpoint;
  msg.host = host;
  msg.format = format;
  msg.multi_field_formats = slicer.multi_field_formats();
  for (const FieldSlice& s : slices) {
    if (s.leaf->kind == MftNodeKind::LeafOpaque) ++msg.opaque_terminations;
    if (s.leaf->kind == MftNodeKind::LeafParam) ++msg.param_terminations;
    if (s.leaf->kind == MftNodeKind::LeafMemory) ++msg.memory_terminations;
  }

  for (const FieldSlice* s : field_slices) {
    const MftNode* leaf = s->leaf;
    const std::vector<const MftNode*>& path = s->path;
    const MftNode* parent = path.size() >= 2 ? path[path.size() - 2] : nullptr;

    ReconstructedField field;
    field.key = s->recovered_key;
    field.semantics = label_of(leaf->leaf_id);
    field.source = source_of_leaf(*leaf, parent);
    if (field.source == FieldValueSource::Opaque && derived_on_path(path))
      field.source = FieldValueSource::Derived;
    // A crypto step above a store-sourced leaf means the *wire value* is
    // derived, even though the taint sink is the secret's store.
    if ((field.source == FieldValueSource::Nvram ||
         field.source == FieldValueSource::Config) &&
        derived_on_path(path))
      field.source = FieldValueSource::Derived;
    field.source_detail = leaf->detail;
    if (leaf->kind == MftNodeKind::LeafString ||
        leaf->kind == MftNodeKind::LeafConst) {
      field.const_value = leaf->detail;
      field.hardcoded = field.source != FieldValueSource::FileRead;
    }
    field.slice_text = s->slice_text;
    field.leaf_id = leaf->leaf_id;

    // Fall back to the source key as the wire-name hint for keyless fields.
    if (field.key.empty() && leaf->kind == MftNodeKind::LeafSource)
      field.key = leaf->detail;

    // --- derivation record (docs/PROVENANCE.md) ---------------------------
    FieldProvenance& prov = field.provenance;
    if (const TaintProvenance* tp = mft.provenance_of(leaf->leaf_id)) {
      prov.visited_functions = tp->visited_functions;
      prov.devirt_crossings = tp->devirt_crossings;
      prov.callsite_crossings = tp->callsite_crossings;
      prov.memory_crossings = tp->memory_crossings;
      prov.taint_depth = tp->depth;
      prov.termination = tp->termination;
    }
    for (const MftNode* node : path)
      prov.construction_path.push_back(path_step(*node));
    prov.format_piece = s->format_piece;
    if (s->split_delimiter != '\0')
      prov.split_delimiter = std::string(1, s->split_delimiter);
    prov.split_score = s->split_score;
    prov.split_pieces = s->split_pieces;
    prov.model = model_.name();
    auto& decision = scored[static_cast<std::size_t>(leaf->leaf_id)];
    if (decision.has_value()) {
      prov.label_scores = std::move(decision->scores);
      prov.margin = decision->margin;
    }

    msg.fields.push_back(std::move(field));
  }
  return msg;
}

ReconstructionResult Reconstructor::reconstruct(
    const std::vector<Mft>& mfts, const std::string& executable,
    const analysis::ValueFlow* valueflow) const {
  ReconstructionResult out;
  for (const Mft& mft : mfts) {
    MftDecision decision;
    auto msg = reconstruct_one(mft, executable, valueflow, &decision);
    if (msg.has_value())
      out.messages.push_back(std::move(*msg));
    else
      ++out.discarded_lan;
    out.decisions.push_back(std::move(decision));
  }
  return out;
}

}  // namespace firmres::core
