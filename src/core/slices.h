// Code-slice generation from MFT paths (§IV-C).
//
// For every leaf of an MFT we compute the slice of construction ops along
// its root-to-leaf path, rendered in the semantically enriched P-Code form
// ("CALL (Fun, sprintf) (Local, finalBuf, v_1357) (Cons, …)"). One
// depth-first walk per MFT produces every slice: each op is rendered and
// each format string split once, however many leaves share them.
//
// Formatted-output assembly needs the extra separation step of §IV-C: a
// sprintf format string covering several fields would put every field's
// keyword into every field's slice. We identify the delimiter by splitting
// candidate delimiters and clustering the resulting substrings by LCS
// similarity, then substitute each value argument's own piece for the full
// format string in its slice (Listing 3).
#pragma once

#include <string>
#include <vector>

#include "core/mft.h"

namespace firmres::analysis {
class ValueFlow;
}

namespace firmres::core {

/// What a leaf contributes to the message.
enum class LeafRole {
  Field,         ///< an actual message field (what Table II counts)
  FormatString,  ///< sprintf/snprintf format operand
  JsonKey,       ///< cJSON_Add* key operand
  Delimiter,     ///< separator literal in concat assembly
  PathConst,     ///< request path / MQTT topic literal
  Structural,    ///< other non-field plumbing (object creation, undef, …)
};

const char* leaf_role_name(LeafRole role);

struct FieldSlice {
  const MftNode* leaf = nullptr;
  /// Root-to-leaf path (inclusive), as Mft::path_to would return it.
  std::vector<const MftNode*> path;
  LeafRole role = LeafRole::Structural;
  /// Enriched token stream for the classifier.
  std::string slice_text;
  /// For sprintf value arguments: the per-field format piece ("uid=%s").
  std::string format_piece;
  /// Wire key recovered from the format piece or the cJSON key sibling.
  std::string recovered_key;
  /// §IV-C split-decision provenance (docs/PROVENANCE.md): the delimiter
  /// chosen for this field's format string ('\0' when the format was not
  /// split), the LCS-cohesion score of the winning candidate, and how many
  /// '%'-bearing pieces the split produced. Only set on Field slices whose
  /// key was recovered through a sprintf format.
  char split_delimiter = '\0';
  double split_score = 0.0;
  int split_pieces = 0;
};

class SliceGenerator {
 public:
  struct Options {
    /// Ablation: disable the §IV-C partial-message separation — value
    /// arguments keep the full multi-field format string in their slices.
    bool split_formats = true;
    /// When set, sprintf/snprintf format operands that are not string
    /// literals (copied through locals, assembled by strcpy/strcat) are
    /// recovered from the value-flow analysis, so §IV-C splitting and key
    /// recovery still see the format text. Not owned; may be nullptr.
    const analysis::ValueFlow* valueflow = nullptr;
  };

  explicit SliceGenerator(const Mft& mft) : SliceGenerator(mft, Options{}) {}
  SliceGenerator(const Mft& mft, Options options);

  /// One FieldSlice per leaf, in tree order.
  const std::vector<FieldSlice>& slices() const { return slices_; }

  /// The multi-field format strings encountered (for the thd clustering
  /// statistics of Table II).
  const std::vector<std::string>& multi_field_formats() const {
    return multi_field_formats_;
  }

  // --- splitting machinery (exposed for tests and the ablation bench) -----

  /// Split a format string on one delimiter, keeping non-empty pieces.
  static std::vector<std::string> split_format(const std::string& fmt,
                                               char delimiter);

  /// Identify the most plausible field delimiter of a format string by
  /// trying candidates and scoring piece cohesion (mean pairwise LCS
  /// similarity of '%'-bearing pieces). Returns '\0' when no candidate
  /// yields a multi-piece split.
  static char identify_delimiter(const std::string& fmt);

  /// identify_delimiter plus the winning candidate's cohesion score
  /// (similarity × piece count; 0.0 when no candidate splits), for the
  /// split-decision provenance record.
  static char identify_delimiter_scored(const std::string& fmt,
                                        double* score);

  /// Greedy average-link clustering of substrings: each piece joins the
  /// cluster whose members are on average most similar to it, when that
  /// average Similarity(a,b) = 2·LCS/(|a|+|b|) is ≥ threshold, and starts a
  /// new cluster otherwise.
  static std::vector<std::vector<std::string>> cluster_pieces(
      const std::vector<std::string>& pieces, double threshold);

  /// The '%'-bearing pieces of a format string, using the identified
  /// delimiter (relaxed: falls back to '&'/',' splits for single-field
  /// formats so key recovery still works).
  static std::vector<std::string> field_pieces(const std::string& fmt);

  /// Leading request path embedded in a query-style format string
  /// ("?m=cloud&a=q&uid=%s" → "?m=cloud&a=q"); empty when absent.
  static std::string path_prefix(const std::string& fmt);

 private:
  std::vector<FieldSlice> slices_;
  std::vector<std::string> multi_field_formats_;
};

}  // namespace firmres::core
