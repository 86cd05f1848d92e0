// Message Field Tree (MFT), the central data structure of FIRMRES (§IV-C).
//
// "It takes the taint sources (e.g., the message arguments) as the root
// nodes and the taint sinks (e.g., the sources of message fields) as the
// leaf nodes. The paths from the leaf nodes to the root node represent
// message construction."
//
// One Mft is built per message-delivery callsite; it has one root per
// message-bearing argument (URL + body, topic + payload, …). Interior nodes
// are the construction ops (sprintf/strcat/cJSON_Add*/COPY); leaves are the
// single-information-source values of §IV-B.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/program.h"

namespace firmres::core {

enum class MftNodeKind {
  Root,        ///< a message argument at the delivery callsite
  Op,          ///< construction step (string op, JSON op, copy, arithmetic)
  LeafConst,   ///< numeric constant (incl. disassembly-noise constants)
  LeafString,  ///< string constant from the data segment
  LeafSource,  ///< field-source library call (NVRAM/config/env/frontend/…)
  LeafOpaque,  ///< result of a call with no modelled inflow (time, rand, …)
  LeafParam,   ///< unresolved function parameter (no callers found)
  LeafMemory,  ///< Load whose reaching stores points-to could not resolve
};

const char* mft_node_kind_name(MftNodeKind kind);

/// Per-leaf record of how the §IV-B backward taint walk reached its sink:
/// the functions crossed from the delivery callsite to the leaf, how many
/// of those crossings went through devirtualized indirect calls or caller
/// ascents, and why the walk terminated there. Keyed by MftNode::leaf_id,
/// which survives simplify()/invert(), so the provenance stays valid on
/// the reconstructor's transformed tree (docs/PROVENANCE.md).
struct TaintProvenance {
  int leaf_id = -1;
  /// Function chain from the delivery function to the leaf's function, in
  /// descent order (duplicates possible on re-entrant paths).
  std::vector<std::string> visited_functions;
  /// Devirtualized CALLIND descents on the path (value-flow resolved).
  int devirt_crossings = 0;
  /// Parameter ascents through resolved callsites on the path.
  int callsite_crossings = 0;
  /// Load→reaching-Store hops on the path, resolved through the points-to
  /// memory def-use index (docs/POINTSTO.md).
  int memory_crossings = 0;
  /// Recursion depth at the leaf.
  int depth = 0;
  /// Why the walk stopped: "numeric-constant", "string-constant",
  /// "field-source", "opaque-call", "unresolved-param", "undefined-local",
  /// "memory-unresolved".
  std::string termination;
};

struct MftNode {
  MftNodeKind kind = MftNodeKind::Op;
  /// Function containing `op` (symbol scope for slice rendering).
  const ir::Function* fn = nullptr;
  /// Defining op (the delivery call for roots; the producing op otherwise).
  const ir::PcodeOp* op = nullptr;
  /// The varnode this node stands for.
  ir::VarNode var{};
  /// Which input slot of the *parent's* op this node expands
  /// (distinguishes a sprintf format string from its value arguments and a
  /// cJSON key from its value). -1 for roots.
  int src_index = -1;
  /// Leaf payload: string-constant content, field-source key, or callee.
  std::string detail;
  /// For LeafSource: the library function consulted (nvram_get, …).
  std::string source_callee;
  /// Stable id of a leaf within its Mft, assigned at construction. Survives
  /// simplify() copies, letting the reconstructor correlate ordered leaves
  /// of the inverted-simplified tree with slices computed on the original.
  int leaf_id = -1;

  std::vector<std::unique_ptr<MftNode>> children;

  bool is_leaf() const { return kind != MftNodeKind::Root && kind != MftNodeKind::Op; }
};

struct Mft {
  const ir::Program* program = nullptr;
  const ir::Function* delivery_fn = nullptr;
  const ir::PcodeOp* delivery_op = nullptr;
  std::string delivery_callee;
  /// One root per message-bearing argument, in argument order.
  std::vector<std::unique_ptr<MftNode>> roots;
  /// Taint-walk provenance, one record per leaf, in leaf_id order.
  std::vector<TaintProvenance> provenance;

  /// Provenance record for a leaf_id; nullptr when unknown.
  const TaintProvenance* provenance_of(int leaf_id) const;

  struct Counts {
    std::size_t nodes = 0;
    std::size_t leaves = 0;
  };
  /// Node and leaf totals over every root, in one traversal.
  Counts count() const;

  /// All leaves in depth-first order across the roots (message order after
  /// the inversion step has been applied to children ordering).
  std::vector<const MftNode*> leaves() const;

  /// Root-to-leaf path (inclusive) for a leaf obtained from leaves().
  /// Returns empty if the leaf is not in this tree.
  std::vector<const MftNode*> path_to(const MftNode* leaf) const;

  /// §IV-D path hash: stable identity of a leaf's construction path, used
  /// for field grouping.
  std::uint64_t path_hash(const MftNode* leaf) const;
};

/// §IV-D "Simplifying the MFT": keep only branching nodes and leaves —
/// interior chains of single-child formatting/encoding nodes are collapsed.
/// Returns a structural copy.
std::unique_ptr<MftNode> simplify(const MftNode& root);

/// §IV-D "Inverting the simplified MFT": reverse child order at every node
/// so that backward-discovery order becomes message concatenation order.
void invert(MftNode& node);

/// Debug rendering (indented tree).
std::string render_mft(const Mft& mft);

}  // namespace firmres::core
