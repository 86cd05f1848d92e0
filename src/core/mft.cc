#include "core/mft.h"

#include <algorithm>
#include <sstream>

#include "support/hash.h"
#include "support/strings.h"

namespace firmres::core {

const char* mft_node_kind_name(MftNodeKind kind) {
  switch (kind) {
    case MftNodeKind::Root: return "Root";
    case MftNodeKind::Op: return "Op";
    case MftNodeKind::LeafConst: return "LeafConst";
    case MftNodeKind::LeafString: return "LeafString";
    case MftNodeKind::LeafSource: return "LeafSource";
    case MftNodeKind::LeafOpaque: return "LeafOpaque";
    case MftNodeKind::LeafParam: return "LeafParam";
    case MftNodeKind::LeafMemory: return "LeafMemory";
  }
  return "?";
}

namespace {

void count_nodes(const MftNode& node, std::size_t& nodes, std::size_t& leaves) {
  ++nodes;
  if (node.is_leaf()) ++leaves;
  for (const auto& c : node.children) count_nodes(*c, nodes, leaves);
}

void collect_leaves(const MftNode& node, std::vector<const MftNode*>& out) {
  if (node.is_leaf()) out.push_back(&node);
  for (const auto& c : node.children) collect_leaves(*c, out);
}

bool find_path(const MftNode& node, const MftNode* leaf,
               std::vector<const MftNode*>& path) {
  path.push_back(&node);
  if (&node == leaf) return true;
  for (const auto& c : node.children) {
    if (find_path(*c, leaf, path)) return true;
  }
  path.pop_back();
  return false;
}

std::uint64_t node_token(const MftNode& node) {
  std::uint64_t h = support::fnv1a64(mft_node_kind_name(node.kind));
  if (node.op != nullptr) h = support::hash_combine(h, node.op->address);
  h = support::hash_combine(h, support::fnv1a64(node.detail));
  h = support::hash_combine(h, static_cast<std::uint64_t>(node.src_index + 1));
  return h;
}

void render_node(const MftNode& node, int depth, std::ostringstream& os) {
  os << std::string(static_cast<std::size_t>(depth) * 2, ' ')
     << mft_node_kind_name(node.kind);
  if (node.op != nullptr && node.op->opcode == ir::OpCode::Call)
    os << " " << node.op->callee;
  else if (node.op != nullptr)
    os << " " << ir::opcode_name(node.op->opcode);
  if (!node.detail.empty()) os << " [" << node.detail << "]";
  if (node.leaf_id >= 0) os << " #" << node.leaf_id;
  os << "\n";
  for (const auto& c : node.children) render_node(*c, depth + 1, os);
}

}  // namespace

Mft::Counts Mft::count() const {
  Counts counts;
  for (const auto& r : roots) count_nodes(*r, counts.nodes, counts.leaves);
  return counts;
}

const TaintProvenance* Mft::provenance_of(int leaf_id) const {
  // Records are in leaf_id order.
  const auto it = std::lower_bound(
      provenance.begin(), provenance.end(), leaf_id,
      [](const TaintProvenance& p, int id) { return p.leaf_id < id; });
  return it != provenance.end() && it->leaf_id == leaf_id ? &*it : nullptr;
}

std::vector<const MftNode*> Mft::leaves() const {
  std::vector<const MftNode*> out;
  for (const auto& r : roots) collect_leaves(*r, out);
  return out;
}

std::vector<const MftNode*> Mft::path_to(const MftNode* leaf) const {
  for (const auto& r : roots) {
    std::vector<const MftNode*> path;
    if (find_path(*r, leaf, path)) return path;
  }
  return {};
}

std::uint64_t Mft::path_hash(const MftNode* leaf) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const MftNode* node : path_to(leaf))
    h = support::hash_combine(h, node_token(*node));
  return h;
}

std::unique_ptr<MftNode> simplify(const MftNode& root) {
  // Post-order: simplify children, then collapse single-child interior
  // nodes (formatting/encoding steps irrelevant to field concatenation).
  auto copy = std::make_unique<MftNode>();
  copy->kind = root.kind;
  copy->fn = root.fn;
  copy->op = root.op;
  copy->var = root.var;
  copy->src_index = root.src_index;
  copy->detail = root.detail;
  copy->source_callee = root.source_callee;
  copy->leaf_id = root.leaf_id;
  for (const auto& c : root.children) {
    auto sc = simplify(*c);
    if (!sc->is_leaf() && sc->kind != MftNodeKind::Root &&
        sc->children.size() == 1) {
      // Chain node: splice its only child up.
      copy->children.push_back(std::move(sc->children.front()));
    } else {
      copy->children.push_back(std::move(sc));
    }
  }
  return copy;
}

void invert(MftNode& node) {
  std::reverse(node.children.begin(), node.children.end());
  for (auto& c : node.children) invert(*c);
}

std::string render_mft(const Mft& mft) {
  const Mft::Counts counts = mft.count();
  std::ostringstream os;
  os << "MFT @" << (mft.delivery_op != nullptr
                        ? support::format("0x%llx", static_cast<unsigned long long>(
                                                        mft.delivery_op->address))
                        : std::string("?"))
     << " " << mft.delivery_callee << " (" << counts.nodes << " nodes, "
     << counts.leaves << " leaves)\n";
  for (const auto& r : mft.roots) render_node(*r, 1, os);
  return os.str();
}

}  // namespace firmres::core
