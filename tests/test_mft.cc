// MFT construction tests (§IV-B/§IV-C): backward taint over sprintf chains,
// cJSON assembly, strcat concatenation, inter-procedural parameters and
// local calls, plus tree transformation (simplify/invert) and path hashing.
#include "core/mft.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "analysis/call_graph.h"
#include "core/taint.h"
#include "ir/builder.h"

namespace firmres::core {
namespace {

Mft build_single(const ir::Program& prog) {
  const analysis::CallGraph cg(prog);
  const MftBuilder builder(prog, cg);
  auto mfts = builder.build_all();
  EXPECT_EQ(mfts.size(), 1u);
  return std::move(mfts.front());
}

/// leaves of a given kind
std::vector<const MftNode*> leaves_of(const Mft& mft, MftNodeKind kind) {
  std::vector<const MftNode*> out;
  for (const MftNode* leaf : mft.leaves())
    if (leaf->kind == kind) out.push_back(leaf);
  return out;
}

TEST(MftBuilder, SprintfMessage) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode mac = f.call("nvram_get", {f.cstr("mac")}, "mac_val");
  const ir::VarNode buf = f.local("msg", 128);
  f.callv("sprintf", {buf, f.cstr("mac=%s&v=%s"), mac, f.cstr("1.0")});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(64)});
  f.ret();

  const Mft mft = build_single(prog);
  EXPECT_EQ(mft.delivery_callee, "SSL_write");
  ASSERT_EQ(mft.roots.size(), 1u);  // msg_args of SSL_write = {1}

  const auto sources = leaves_of(mft, MftNodeKind::LeafSource);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0]->detail, "mac");
  EXPECT_EQ(sources[0]->source_callee, "nvram_get");

  const auto strings = leaves_of(mft, MftNodeKind::LeafString);
  ASSERT_EQ(strings.size(), 2u);  // format string + "1.0"
}

TEST(MftBuilder, SslContextIsNotARoot) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  const ir::VarNode buf = f.local("msg", 16);
  f.callv("strcpy", {buf, f.cstr("x")});
  f.callv("SSL_write", {ssl, buf, f.cnum(1)});
  f.ret();
  const Mft mft = build_single(prog);
  // No leaf should mention SSL_new: only the message argument is tainted.
  for (const MftNode* leaf : mft.leaves())
    EXPECT_NE(leaf->detail, "SSL_new");
}

TEST(MftBuilder, CJsonAssemblyPreservesKeyValueStructure) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode obj = f.call("cJSON_CreateObject", {}, "obj");
  const ir::VarNode sn = f.call("nvram_get", {f.cstr("serial_no")}, "sn_val");
  f.callv("cJSON_AddStringToObject", {obj, f.cstr("sn"), sn});
  f.callv("cJSON_AddStringToObject", {obj, f.cstr("fw"), f.cstr("V1.2")});
  const ir::VarNode body = f.call("cJSON_PrintUnformatted", {obj}, "body");
  const ir::VarNode len = f.call("strlen", {body});
  f.callv("http_post", {f.cstr("https://c.example/api"), body, len});
  f.ret();

  const Mft mft = build_single(prog);
  ASSERT_EQ(mft.roots.size(), 2u);  // http_post msg_args = {0, 1}

  // URL root: single string leaf.
  EXPECT_EQ(mft.roots[0]->children.size(), 1u);
  EXPECT_EQ(mft.roots[0]->children[0]->kind, MftNodeKind::LeafString);

  const auto sources = leaves_of(mft, MftNodeKind::LeafSource);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0]->detail, "serial_no");
  // The JSON keys are string leaves with src_index == 1 under cJSON_Add ops.
  int key_leaves = 0;
  for (const MftNode* leaf : leaves_of(mft, MftNodeKind::LeafString)) {
    if (leaf->src_index == 1 &&
        (leaf->detail == "sn" || leaf->detail == "fw"))
      ++key_leaves;
  }
  EXPECT_EQ(key_leaves, 2);
  // cJSON_CreateObject shows up as a structural opaque leaf.
  const auto opaques = leaves_of(mft, MftNodeKind::LeafOpaque);
  ASSERT_GE(opaques.size(), 1u);
  EXPECT_EQ(opaques[0]->detail, "cJSON_CreateObject");
}

TEST(MftBuilder, StrcatChainYieldsSiblingsInBackwardOrder) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode buf = f.local("buf", 64);
  f.callv("strcpy", {buf, f.cstr("first")});
  f.callv("strcat", {buf, f.cstr("second")});
  f.callv("strcat", {buf, f.cstr("third")});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(20)});
  f.ret();

  const Mft mft = build_single(prog);
  const MftNode& root = *mft.roots[0];
  ASSERT_EQ(root.children.size(), 3u);
  // Backward discovery order: latest def first.
  EXPECT_EQ(root.children[0]->children[0]->detail, "third");
  EXPECT_EQ(root.children[1]->children[0]->detail, "second");
  EXPECT_EQ(root.children[2]->children[0]->detail, "first");
}

TEST(MftBuilder, InterProceduralParameterTracing) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  {
    // deliver(payload): SSL_write(ssl, payload, n) — payload is a param.
    ir::FunctionBuilder f = b.function("deliver");
    const ir::VarNode payload = f.param("payload");
    const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
    f.callv("SSL_write", {ssl, payload, f.cnum(32)});
    f.ret();
  }
  {
    ir::FunctionBuilder f = b.function("caller");
    const ir::VarNode mac = f.call("nvram_get", {f.cstr("mac")}, "mac_val");
    f.callv("deliver", {mac});
    f.ret();
  }
  const Mft mft = build_single(prog);
  const auto sources = leaves_of(mft, MftNodeKind::LeafSource);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0]->detail, "mac");
  EXPECT_EQ(sources[0]->fn->name(), "caller");
}

TEST(MftBuilder, ParameterWithoutCallersBecomesLeafParam) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("deliver");
  const ir::VarNode payload = f.param("payload");
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, payload, f.cnum(32)});
  f.ret();
  const Mft mft = build_single(prog);
  const auto params = leaves_of(mft, MftNodeKind::LeafParam);
  ASSERT_EQ(params.size(), 1u);
  EXPECT_EQ(params[0]->detail, "payload");
}

TEST(MftBuilder, LocalCallDescendsIntoReturn) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  {
    ir::FunctionBuilder f = b.function("get_id");
    const ir::VarNode id = f.call("nvram_get", {f.cstr("device_id")}, "id");
    f.ret(id);
  }
  {
    ir::FunctionBuilder f = b.function("send_msg");
    const ir::VarNode id = f.call("get_id", {}, "dev");
    const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
    f.callv("SSL_write", {ssl, id, f.cnum(8)});
    f.ret();
  }
  const Mft mft = build_single(prog);
  const auto sources = leaves_of(mft, MftNodeKind::LeafSource);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0]->detail, "device_id");
  EXPECT_EQ(sources[0]->fn->name(), "get_id");
}

TEST(MftBuilder, NoiseConstantsBecomeConstLeaves) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode buf = f.local("buf", 64);
  f.callv("strcpy", {buf, f.cstr("data")});
  f.copy(buf, f.cnum(0x53534153));
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(8)});
  f.ret();
  const Mft mft = build_single(prog);
  const auto consts = leaves_of(mft, MftNodeKind::LeafConst);
  ASSERT_EQ(consts.size(), 1u);
  EXPECT_EQ(consts[0]->detail, std::to_string(0x53534153));
}

TEST(MftBuilder, LeafIdsAreUniqueAndDense) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode buf = f.local("buf", 64);
  f.callv("sprintf", {buf, f.cstr("a=%s&b=%s"),
                      f.call("nvram_get", {f.cstr("a")}, "a_val"),
                      f.call("nvram_get", {f.cstr("b")}, "b_val")});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(8)});
  f.ret();
  const Mft mft = build_single(prog);
  std::set<int> ids;
  for (const MftNode* leaf : mft.leaves()) {
    EXPECT_GE(leaf->leaf_id, 0);
    EXPECT_TRUE(ids.insert(leaf->leaf_id).second);
  }
  EXPECT_EQ(ids.size(), mft.count().leaves);
}

TEST(Mft, PathToAndHash) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode buf = f.local("buf", 64);
  f.callv("strcpy", {buf, f.cstr("payload")});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(8)});
  f.ret();
  const Mft mft = build_single(prog);
  const auto leaves = mft.leaves();
  ASSERT_FALSE(leaves.empty());
  const auto path = mft.path_to(leaves[0]);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front()->kind, MftNodeKind::Root);
  EXPECT_EQ(path.back(), leaves[0]);
  // Distinct leaves hash differently; the same leaf hashes stably.
  EXPECT_EQ(mft.path_hash(leaves[0]), mft.path_hash(leaves[0]));
}

TEST(Mft, SimplifyCollapsesChains) {
  // body ← base64_encode(value) ← nvram_get: the encode node is a
  // single-child formatting step that simplification must splice out
  // (§IV-D "the nodes of MFT contain not only field concatenating
  // operations but also field encoding and message formatting").
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode raw = f.call("nvram_get", {f.cstr("uid")}, "uid_val");
  const ir::VarNode enc = f.call("base64_encode", {raw}, "enc");
  const ir::VarNode buf = f.local("buf", 64);
  f.callv("strcpy", {buf, enc});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(8)});
  f.ret();
  const Mft mft = build_single(prog);

  std::size_t nodes_before = mft.count().nodes;
  auto simplified = simplify(*mft.roots[0]);
  std::function<std::size_t(const MftNode&)> count =
      [&](const MftNode& n) -> std::size_t {
    std::size_t total = 1;
    for (const auto& c : n.children) total += count(*c);
    return total;
  };
  EXPECT_LT(count(*simplified), nodes_before);

  // Leaves and their ids survive simplification.
  std::function<void(const MftNode&, std::set<int>&)> collect =
      [&](const MftNode& n, std::set<int>& ids) {
        if (n.is_leaf()) ids.insert(n.leaf_id);
        for (const auto& c : n.children) collect(*c, ids);
      };
  std::set<int> before_ids, after_ids;
  collect(*mft.roots[0], before_ids);
  collect(*simplified, after_ids);
  EXPECT_EQ(before_ids, after_ids);
}

TEST(Mft, InvertReversesChildOrderRecursively) {
  MftNode root;
  root.kind = MftNodeKind::Root;
  for (int i = 0; i < 3; ++i) {
    auto child = std::make_unique<MftNode>();
    child->kind = MftNodeKind::LeafConst;
    child->detail = std::to_string(i);
    child->leaf_id = i;
    root.children.push_back(std::move(child));
  }
  invert(root);
  EXPECT_EQ(root.children[0]->detail, "2");
  EXPECT_EQ(root.children[1]->detail, "1");
  EXPECT_EQ(root.children[2]->detail, "0");
}

TEST(Mft, RenderContainsStructure) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode buf = f.local("buf", 64);
  f.callv("strcpy", {buf, f.cstr("x")});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(1)});
  f.ret();
  const Mft mft = build_single(prog);
  const std::string text = render_mft(mft);
  EXPECT_NE(text.find("SSL_write"), std::string::npos);
  EXPECT_NE(text.find("LeafString"), std::string::npos);
}

TEST(MftBuilder, NodeBudgetBoundsExplosion) {
  // A long strcat chain; with a tiny budget, construction must stop early
  // rather than blow up.
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode buf = f.local("buf", 64);
  f.callv("strcpy", {buf, f.cstr("p0")});
  for (int i = 1; i < 100; ++i)
    f.callv("strcat", {buf, f.cstr("p" + std::to_string(i))});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(8)});
  f.ret();

  const analysis::CallGraph cg(prog);
  MftBuilder::Options opts;
  opts.max_nodes = 20;
  const MftBuilder builder(prog, cg, opts);
  const auto mfts = builder.build_all();
  ASSERT_EQ(mfts.size(), 1u);
  EXPECT_LE(mfts[0].count().nodes, 22u);  // budget plus root slack
}

}  // namespace
}  // namespace firmres::core
