#include "core/slices.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>

#include "analysis/valueflow/valueflow.h"
#include "ir/library.h"
#include "ir/printer.h"
#include "support/observability/metrics.h"
#include "support/strings.h"

namespace firmres::core {

namespace {
// §IV-C slice counters (Work-kind — docs/OBSERVABILITY.md).
support::metrics::Counter g_slices_emitted("slices.emitted",
                                           support::metrics::Kind::Work);
support::metrics::Counter g_multi_field_formats(
    "slices.multi_field_formats", support::metrics::Kind::Work);
}  // namespace

const char* leaf_role_name(LeafRole role) {
  switch (role) {
    case LeafRole::Field: return "Field";
    case LeafRole::FormatString: return "FormatString";
    case LeafRole::JsonKey: return "JsonKey";
    case LeafRole::Delimiter: return "Delimiter";
    case LeafRole::PathConst: return "PathConst";
    case LeafRole::Structural: return "Structural";
  }
  return "?";
}

namespace {

bool is_sprintf_like(const ir::PcodeOp* op) {
  return op != nullptr && op->opcode == ir::OpCode::Call &&
         (op->callee == "sprintf" || op->callee == "snprintf");
}

int format_arg_index(const ir::PcodeOp* op) {
  return op->callee == "snprintf" ? 2 : 1;
}

bool parent_is_json_add(const MftNode* parent) {
  return parent != nullptr && parent->op != nullptr &&
         parent->op->opcode == ir::OpCode::Call &&
         parent->op->callee.rfind("cJSON_Add", 0) == 0;
}

bool parent_is_file_read(const MftNode* parent) {
  if (parent == nullptr || parent->op == nullptr ||
      parent->op->opcode != ir::OpCode::Call)
    return false;
  return ir::LibraryModel::instance().is_kind(parent->op->callee,
                                              ir::LibKind::FileOp);
}

bool looks_like_path(const std::string& s) {
  if (s.empty()) return false;
  if (s[0] == '/' || s[0] == '?') return true;
  return s.rfind("http://", 0) == 0 || s.rfind("https://", 0) == 0;
}

bool looks_like_delimiter(const std::string& s) {
  if (s.empty() || s.size() > 2) return false;
  for (const char c : s)
    if (std::isalnum(static_cast<unsigned char>(c))) return false;
  return true;
}

/// Count '%'-conversions in a format string.
int conversion_count(const std::string& fmt) {
  int n = 0;
  for (std::size_t i = 0; i + 1 < fmt.size(); ++i) {
    if (fmt[i] == '%' && fmt[i + 1] != '%') ++n;
  }
  return n;
}

/// Parse the wire key out of a one-field format piece:
/// "uid=%s" → "uid";  "\"mac\":\"%s\"" → "mac". Empty when unparsable or
/// the piece holds several conversions.
std::string key_of_piece(std::string piece) {
  if (conversion_count(piece) != 1) return {};
  // Strip a leading "/path?" fused onto the first query piece.
  if (!piece.empty() && piece[0] == '/') {
    const auto q = piece.find('?');
    if (q != std::string::npos) piece.erase(0, q + 1);
  }
  // Strip surrounding JSON braces that ride along on first/last chunks.
  while (!piece.empty() && (piece.front() == '{' || piece.front() == '?' ||
                            piece.front() == '&'))
    piece.erase(piece.begin());
  while (!piece.empty() && piece.back() == '}') piece.pop_back();
  if (const auto colon = piece.find("\":"); colon != std::string::npos) {
    // "key":"%s"
    std::string key = piece.substr(0, colon);
    while (!key.empty() && key.front() == '"') key.erase(key.begin());
    return key;
  }
  if (const auto eq = piece.find('='); eq != std::string::npos) {
    const std::string key = piece.substr(0, eq);
    // Query pieces may carry a path prefix on the first chunk
    // ("?m=cloud&a=q&uid=%s" splits fine; a residual "/path?uid" does not).
    if (key.find('/') == std::string::npos &&
        key.find('%') == std::string::npos)
      return key;
  }
  return {};
}

/// field_pieces for a format whose delimiter identify_delimiter already
/// chose ('\0' when none).
std::vector<std::string> pieces_on(const std::string& fmt, char delim) {
  if (delim == '\0') {
    // Single-field formats still need splitting so the key parser sees
    // "uid=%s" rather than "?m=cloud&a=q&uid=%s".
    for (const char cand : {'&', ','}) {
      if (SliceGenerator::split_format(fmt, cand).size() > 1) {
        delim = cand;
        break;
      }
    }
  }
  std::vector<std::string> out;
  if (delim == '\0') {
    if (fmt.find('%') != std::string::npos) out.push_back(fmt);
    return out;
  }
  for (const std::string& p : SliceGenerator::split_format(fmt, delim))
    if (p.find('%') != std::string::npos) out.push_back(p);
  return out;
}

}  // namespace

std::vector<std::string> SliceGenerator::split_format(const std::string& fmt,
                                                      char delimiter) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : fmt) {
    if (c == delimiter) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

char SliceGenerator::identify_delimiter(const std::string& fmt) {
  double score = 0.0;
  return identify_delimiter_scored(fmt, &score);
}

char SliceGenerator::identify_delimiter_scored(const std::string& fmt,
                                               double* score_out) {
  static constexpr char kCandidates[] = {'&', ',', ';', '|', ' '};
  char best = '\0';
  double best_score = 0.0;
  for (const char cand : kCandidates) {
    const auto pieces = split_format(fmt, cand);
    if (pieces.size() < 2) continue;
    // Cohesion: mean pairwise similarity of the '%'-bearing pieces. A true
    // field delimiter yields many small look-alike "key=%s" pieces.
    std::vector<std::string> with_pct;
    for (const std::string& p : pieces)
      if (p.find('%') != std::string::npos) with_pct.push_back(p);
    if (with_pct.size() < 2) continue;
    double total = 0.0;
    int pairs = 0;
    for (std::size_t i = 0; i < with_pct.size(); ++i) {
      for (std::size_t j = i + 1; j < with_pct.size(); ++j) {
        total += support::lcs_similarity(with_pct[i], with_pct[j]);
        ++pairs;
      }
    }
    const double score =
        (total / pairs) * static_cast<double>(with_pct.size());
    if (score > best_score) {
      best_score = score;
      best = cand;
    }
  }
  *score_out = best_score;
  return best;
}

std::vector<std::vector<std::string>> SliceGenerator::cluster_pieces(
    const std::vector<std::string>& pieces, double threshold) {
  // Greedy average-link agglomeration: each piece joins the cluster whose
  // members are, on average, most similar to it, provided that average
  // clears the threshold. Average linkage avoids both the chaining
  // collapse of single-link (everything transitively merging through
  // medium-length keys at low thresholds) and the over-fragmentation of
  // complete-link (one long outlier key blocking an otherwise coherent
  // cluster).
  std::vector<std::vector<std::string>> clusters;
  for (const std::string& piece : pieces) {
    int best = -1;
    double best_avg = 0.0;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      double total = 0.0;
      for (const std::string& member : clusters[c])
        total += support::lcs_similarity(piece, member);
      const double avg = total / static_cast<double>(clusters[c].size());
      if (avg >= threshold && avg > best_avg) {
        best_avg = avg;
        best = static_cast<int>(c);
      }
    }
    if (best >= 0)
      clusters[static_cast<std::size_t>(best)].push_back(piece);
    else
      clusters.push_back({piece});
  }
  return clusters;
}

std::vector<std::string> SliceGenerator::field_pieces(
    const std::string& fmt) {
  return pieces_on(fmt, identify_delimiter(fmt));
}

std::string SliceGenerator::path_prefix(const std::string& fmt) {
  if (fmt.empty() || (fmt[0] != '/' && fmt[0] != '?')) return {};
  char delim = '&';
  if (split_format(fmt, '&').size() < 2) delim = ',';
  std::string prefix;
  for (const std::string& piece : split_format(fmt, delim)) {
    if (piece.find('%') != std::string::npos) {
      // "/path?key=%s": the path rides on the first conversion piece.
      if (prefix.empty() && piece[0] == '/') {
        const auto q = piece.find('?');
        if (q != std::string::npos) prefix = piece.substr(0, q);
      }
      break;
    }
    if (!prefix.empty()) prefix += delim;
    prefix += piece;
  }
  return prefix;
}

namespace {

/// A leaf's role in the message, from the leaf and its parent on the path.
LeafRole role_of(const MftNode& leaf, const MftNode* parent) {
  switch (leaf.kind) {
    case MftNodeKind::LeafSource:
      return LeafRole::Field;
    case MftNodeKind::LeafConst:
      return LeafRole::Field;  // incl. disassembly-noise constants
    case MftNodeKind::LeafParam:
      return leaf.detail == "undef" ? LeafRole::Structural : LeafRole::Field;
    case MftNodeKind::LeafOpaque: {
      const ir::LibFunction* lib =
          ir::LibraryModel::instance().find(leaf.detail);
      const bool structural =
          lib != nullptr && (lib->kind == ir::LibKind::JsonOp ||
                             lib->kind == ir::LibKind::Alloc ||
                             lib->kind == ir::LibKind::Other);
      // time()/rand() are LibKind::Other too, but their results genuinely
      // reach the message; the distinguishing property is whether the call
      // result carries request payload, which we approximate by whitelist.
      const bool payload_call = leaf.detail == "time" || leaf.detail == "rand";
      return (structural && !payload_call) ? LeafRole::Structural
                                           : LeafRole::Field;
    }
    case MftNodeKind::LeafString: {
      const std::string& text = leaf.detail;
      if (parent_is_file_read(parent))
        return LeafRole::Field;  // <Variable = Function(Constant)>
      if (is_sprintf_like(parent != nullptr ? parent->op : nullptr) &&
          leaf.src_index == format_arg_index(parent->op))
        return LeafRole::FormatString;
      if (parent_is_json_add(parent) && leaf.src_index == 1)
        return LeafRole::JsonKey;
      if (looks_like_delimiter(text)) return LeafRole::Delimiter;
      if (looks_like_path(text)) return LeafRole::PathConst;
      return LeafRole::Field;  // hardcoded value constants
    }
    default:
      return LeafRole::Structural;
  }
}

/// One format string's §IV-C split: its '%'-bearing pieces, the wire key
/// each names, whether the piece can carry a field, and the split decision.
struct FormatSplit {
  std::vector<std::string> pieces;
  std::vector<std::string> keys;
  std::vector<bool> usable;  ///< a parsed key, or exactly one conversion
  char delimiter = '\0';
  double score = 0.0;
};

FormatSplit split_of(const std::string& fmt) {
  FormatSplit out;
  out.delimiter = SliceGenerator::identify_delimiter_scored(fmt, &out.score);
  out.pieces = pieces_on(fmt, out.delimiter);
  for (const std::string& piece : out.pieces) {
    out.keys.push_back(key_of_piece(piece));
    out.usable.push_back(!out.keys.back().empty() ||
                         conversion_count(piece) == 1);
  }
  return out;
}

/// The one depth-first walk behind SliceGenerator. It keeps the current
/// root-to-leaf path on a stack of steps, so each op is rendered, and each
/// assembler's format resolved and split, once for all the leaves below it.
class SliceWalker {
 public:
  SliceWalker(const Mft& mft, const SliceGenerator::Options& options,
              std::vector<FieldSlice>& out)
      : mft_(mft), options_(options), out_(out) {}

  void walk(const MftNode& node);

 private:
  /// One node of the current path. Steps are reused across leaves, so their
  /// strings keep their capacity.
  struct Step {
    const MftNode* node = nullptr;
    /// The op's header and input tokens, rendered once for all its edges.
    std::string header;
    std::vector<std::string> tokens;
    /// The op rendered for the edge to the next node on the path (at a
    /// leaf: with its constant operands only); empty without an op.
    std::string text;
    /// A sprintf's literal format operand: its input slot, the format it
    /// names, and where its token sits in `text` (a Ram operand's token is
    /// always rendered), for the per-leaf piece substitution.
    int format_slot = -1;
    std::optional<std::string_view> format;
    std::size_t format_begin = 0;
    std::size_t format_end = 0;
    /// Key-recovery memo: the split of this assembler's format, resolved on
    /// the first field leaf below it (nullptr when it has no format).
    bool split_resolved = false;
    const FormatSplit* split = nullptr;
  };

  void render_edge(Step& step, const MftNode* next) const;
  void emit_leaf();
  void recover_key(FieldSlice& slice);
  const FormatSplit* split_at(Step& step);
  std::string slice_text(const std::string& format_piece) const;

  const Mft& mft_;
  const SliceGenerator::Options& options_;
  std::vector<FieldSlice>& out_;
  std::vector<Step> steps_;  ///< steps_[0, depth_) is the current path
  std::size_t depth_ = 0;
  std::unordered_map<std::string, FormatSplit> splits_;  ///< by format text
};

void SliceWalker::walk(const MftNode& node) {
  const std::size_t d = depth_++;
  if (steps_.size() < depth_) steps_.emplace_back();
  {
    Step& step = steps_[d];
    step.node = &node;
    step.text.clear();
    step.format_slot = -1;
    step.format.reset();
    step.split_resolved = false;
    step.split = nullptr;
    if (node.op != nullptr) {
      const ir::PcodeOp& op = *node.op;
      step.header = ir::opcode_name(op.opcode);
      if (op.opcode == ir::OpCode::Call) {
        step.header += " (Fun, ";
        step.header += op.callee;
        step.header += ")";
      }
      if (op.output.has_value()) {
        step.header += " ";
        step.header += ir::render_enriched(*op.output, *node.fn);
        step.header += " =";
      }
      step.tokens.clear();
      for (const ir::VarNode& input : op.inputs)
        step.tokens.push_back(ir::render_enriched(input, *node.fn));
      if (is_sprintf_like(&op)) {
        const int slot = format_arg_index(&op);
        if (static_cast<std::size_t>(slot) < op.inputs.size() &&
            op.inputs[static_cast<std::size_t>(slot)].is_ram()) {
          step.format_slot = slot;
          step.format = mft_.program->data().string_at(
              op.inputs[static_cast<std::size_t>(slot)].offset);
        }
      }
    }
  }
  if (node.is_leaf()) {
    render_edge(steps_[d], nullptr);
    emit_leaf();
  }
  for (const auto& child : node.children) {
    render_edge(steps_[d], child.get());
    walk(*child);
  }
  --depth_;
}

void SliceWalker::render_edge(Step& step, const MftNode* next) const {
  // Per op on the path: the opcode/callee, the output, the input the path
  // flows through, and constant operands. Variable operands of *other*
  // fields (sibling arguments of the same sprintf) are elided — they belong
  // to other fields' slices and would leak their keywords into this one
  // (the noise problem §IV-C's separation step addresses).
  const MftNode& node = *step.node;
  if (node.op == nullptr) return;
  const ir::PcodeOp& op = *node.op;
  step.text = step.header;
  for (std::size_t i = 0; i < op.inputs.size(); ++i) {
    const ir::VarNode& input = op.inputs[i];
    const bool relevant =
        next != nullptr &&
        (input == next->var || static_cast<int>(i) == next->src_index);
    const bool constant = input.is_constant() || input.is_ram();
    if (!relevant && !constant) continue;
    step.text += ' ';
    if (static_cast<int>(i) == step.format_slot) {
      step.format_begin = step.text.size();
      step.format_end = step.format_begin + step.tokens[i].size();
    }
    step.text += step.tokens[i];
  }
}

void SliceWalker::emit_leaf() {
  FieldSlice slice;
  slice.path.reserve(depth_);
  for (std::size_t i = 0; i < depth_; ++i)
    slice.path.push_back(steps_[i].node);
  slice.leaf = slice.path.back();
  slice.role = role_of(*slice.leaf,
                       depth_ >= 2 ? steps_[depth_ - 2].node : nullptr);
  if (slice.role == LeafRole::Field) recover_key(slice);
  slice.slice_text = slice_text(slice.format_piece);
  out_.push_back(std::move(slice));
}

void SliceWalker::recover_key(FieldSlice& slice) {
  // The assembling op (cJSON_Add / sprintf) may sit several path steps above
  // the leaf when the value is produced by a local accessor function, so we
  // scan the path for the nearest such ancestor; the node *below* it on the
  // path carries the argument-slot index.
  for (std::size_t k = 0; k + 1 < depth_; ++k) {
    const MftNode* assembler = steps_[k].node;
    const MftNode* slot = steps_[k + 1].node;
    if (assembler->op == nullptr) continue;
    if (parent_is_json_add(assembler)) {
      if (slot->src_index != 2) continue;  // only the value argument
      for (const auto& sib : assembler->children) {
        if (sib->src_index == 1 && sib->kind == MftNodeKind::LeafString) {
          slice.recovered_key = sib->detail;
          break;
        }
      }
      break;
    }
    if (!is_sprintf_like(assembler->op)) continue;
    // Map the slot to the matching '%'-piece of the (split) format.
    const FormatSplit* split = split_at(steps_[k]);
    if (split == nullptr) continue;  // joining sprintf ("%s%s"): keep walking
    const int position =
        slot->src_index - format_arg_index(assembler->op) - 1;
    if (position < 0 ||
        static_cast<std::size_t>(position) >= split->pieces.size() ||
        !split->usable[static_cast<std::size_t>(position)])
      continue;
    const auto at = static_cast<std::size_t>(position);
    slice.recovered_key = split->keys[at];
    // The §IV-C separation step; disabled in the ablation, leaving the full
    // multi-field format in every value slice.
    if (options_.split_formats) slice.format_piece = split->pieces[at];
    slice.split_delimiter = split->delimiter;
    slice.split_score = split->score;
    slice.split_pieces = static_cast<int>(split->pieces.size());
    break;
  }
}

const FormatSplit* SliceWalker::split_at(Step& step) {
  if (step.split_resolved) return step.split;
  step.split_resolved = true;
  const MftNode& assembler = *step.node;
  const int fmt_index = format_arg_index(assembler.op);
  std::string fmt;
  for (const auto& sib : assembler.children) {
    if (sib->src_index == fmt_index && sib->kind == MftNodeKind::LeafString) {
      fmt = sib->detail;
      break;
    }
  }
  // Non-literal format operand: recover its content from value flow (a
  // literal sibling is preferred — it is exactly what the op saw).
  if (fmt.empty() && options_.valueflow != nullptr &&
      assembler.fn != nullptr &&
      static_cast<std::size_t>(fmt_index) < assembler.op->inputs.size()) {
    const auto folded = options_.valueflow->string_of(
        assembler.fn,
        assembler.op->inputs[static_cast<std::size_t>(fmt_index)]);
    if (folded.has_value()) fmt = *folded;
  }
  if (fmt.empty()) return nullptr;
  auto [it, fresh] = splits_.try_emplace(fmt);
  if (fresh) it->second = split_of(fmt);
  step.split = &it->second;
  return step.split;
}

std::string SliceWalker::slice_text(const std::string& format_piece) const {
  // The path's op texts joined by " ; ", an op identical to the one before
  // it dropped. §IV-C separation: a sprintf's literal format operand shows
  // this field's own piece instead of the full multi-field format.
  std::string out;
  std::size_t last = std::string::npos;  ///< where the last op text starts
  std::string substituted;
  for (std::size_t i = 0; i < depth_; ++i) {
    const Step& step = steps_[i];
    if (step.node->op == nullptr) continue;
    std::string_view text = step.text;
    if (!format_piece.empty() && step.format.has_value()) {
      substituted.assign(text.substr(0, step.format_begin));
      substituted += support::replace_all(
          text.substr(step.format_begin,
                      step.format_end - step.format_begin),
          *step.format, format_piece);
      substituted += text.substr(step.format_end);
      text = substituted;
    }
    if (last != std::string::npos) {
      if (std::string_view(out).substr(last) == text) continue;
      out += " ; ";
    }
    last = out.size();
    out += text;
  }
  return out;
}

}  // namespace

SliceGenerator::SliceGenerator(const Mft& mft, Options options) {
  SliceWalker walker(mft, options, slices_);
  for (const auto& root : mft.roots) walker.walk(*root);
  std::set<std::string> seen_formats;
  for (const FieldSlice& s : slices_) {
    if (s.role == LeafRole::FormatString &&
        conversion_count(s.leaf->detail) > 1 &&
        seen_formats.insert(s.leaf->detail).second) {
      multi_field_formats_.push_back(s.leaf->detail);
    }
  }
  g_slices_emitted.add(slices_.size());
  g_multi_field_formats.add(multi_field_formats_.size());
}

}  // namespace firmres::core
