// Slice-generation tests (§IV-C): leaf role classification, key recovery,
// delimiter identification, piece clustering, and the format-piece
// substitution that keeps sibling fields' keywords out of each other's
// slices.
#include "core/slices.h"

#include <gtest/gtest.h>

#include "analysis/call_graph.h"
#include "analysis/valueflow/valueflow.h"
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

const FieldSlice* slice_with_key(const std::vector<FieldSlice>& slices,
                                 const std::string& key) {
  for (const FieldSlice& s : slices)
    if (s.recovered_key == key) return &s;
  return nullptr;
}

TEST(SliceGenerator, QueryKeyRecovery) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode uid = f.call("nvram_get", {f.cstr("uid")}, "uid_val");
  const ir::VarNode t = f.call("time", {f.cnum(0)}, "ts_val");
  const ir::VarNode buf = f.local("buf", 128);
  f.callv("sprintf",
          {buf, f.cstr("?m=cloud&a=queryServices&uid=%s&alarm_time=%s"), uid,
           t});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(32)});
  f.ret();

  const Mft mft = build_single(prog);
  const SliceGenerator gen(mft);
  const FieldSlice* uid_slice = slice_with_key(gen.slices(), "uid");
  ASSERT_NE(uid_slice, nullptr);
  EXPECT_EQ(uid_slice->role, LeafRole::Field);
  EXPECT_EQ(uid_slice->format_piece, "uid=%s");
  const FieldSlice* t_slice = slice_with_key(gen.slices(), "alarm_time");
  ASSERT_NE(t_slice, nullptr);
  EXPECT_EQ(t_slice->format_piece, "alarm_time=%s");
}

TEST(SliceGenerator, JsonKeyRecoveryFromSprintf) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode mac = f.call("nvram_get", {f.cstr("lan_hwaddr")}, "m");
  const ir::VarNode sn = f.call("nvram_get", {f.cstr("serial_no")}, "s");
  const ir::VarNode buf = f.local("buf", 128);
  f.callv("sprintf", {buf, f.cstr("{\"mac\":\"%s\",\"sn\":\"%s\"}"), mac, sn});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(32)});
  f.ret();

  const Mft mft = build_single(prog);
  const SliceGenerator gen(mft);
  EXPECT_NE(slice_with_key(gen.slices(), "mac"), nullptr);
  EXPECT_NE(slice_with_key(gen.slices(), "sn"), nullptr);
}

TEST(SliceGenerator, JsonKeyRecoveryFromCJson) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode obj = f.call("cJSON_CreateObject", {}, "obj");
  f.callv("cJSON_AddStringToObject",
          {obj, f.cstr("deviceId"),
           f.call("nvram_get", {f.cstr("device_id")}, "id_val")});
  const ir::VarNode body = f.call("cJSON_PrintUnformatted", {obj}, "body");
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, body, f.cnum(16)});
  f.ret();

  const Mft mft = build_single(prog);
  const SliceGenerator gen(mft);
  const FieldSlice* s = slice_with_key(gen.slices(), "deviceId");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->role, LeafRole::Field);
  // The cJSON key itself is structural, not a field.
  for (const FieldSlice& fs : gen.slices()) {
    if (fs.leaf->detail == "deviceId" &&
        fs.leaf->kind == MftNodeKind::LeafString) {
      EXPECT_EQ(fs.role, LeafRole::JsonKey);
    }
  }
}

TEST(SliceGenerator, PieceSubstitutionKeepsSiblingsOut) {
  // Both fields are formatted by ONE sprintf; each field's slice must show
  // only its own piece, and must not name the sibling's key.
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode mac = f.call("nvram_get", {f.cstr("lan_hwaddr")}, "m1");
  const ir::VarNode pw =
      f.call("nvram_get", {f.cstr("cloud_pass")}, "m2");
  const ir::VarNode buf = f.local("buf", 128);
  f.callv("sprintf", {buf, f.cstr("mac=%s&password=%s"), mac, pw});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(32)});
  f.ret();

  const Mft mft = build_single(prog);
  const SliceGenerator gen(mft);
  const FieldSlice* mac_slice = slice_with_key(gen.slices(), "mac");
  ASSERT_NE(mac_slice, nullptr);
  EXPECT_NE(mac_slice->slice_text.find("mac=%s"), std::string::npos);
  EXPECT_EQ(mac_slice->slice_text.find("password"), std::string::npos);
  const FieldSlice* pw_slice = slice_with_key(gen.slices(), "password");
  ASSERT_NE(pw_slice, nullptr);
  EXPECT_EQ(pw_slice->slice_text.find("mac=%s"), std::string::npos);
}

TEST(SliceGenerator, TwoAssemblersSplitByTheirOwnFormatText) {
  // Two sprintf assemblers in one MFT: one with a literal format, one whose
  // format is a local filled by strcpy, known only through value flow. Each
  // field takes its key, piece and split record from its own assembler's
  // format text.
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode mac = f.call("nvram_get", {f.cstr("lan_hwaddr")}, "m");
  const ir::VarNode sn = f.call("nvram_get", {f.cstr("serial_no")}, "s");
  const ir::VarNode tok = f.call("nvram_get", {f.cstr("bind_tok")}, "t");
  const ir::VarNode sig = f.call("nvram_get", {f.cstr("sig_val")}, "g");
  const ir::VarNode fmt = f.local("fmt", 64);
  f.callv("strcpy", {fmt, f.cstr("token=%s&sign=%s&v=%s")});
  const ir::VarNode head = f.local("head", 128);
  f.callv("sprintf", {head, f.cstr("mac=%s&sn=%s"), mac, sn});
  const ir::VarNode tail = f.local("tail", 128);
  f.callv("sprintf", {tail, fmt, tok, sig, f.cnum(1)});
  f.callv("strcat", {head, tail});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, head, f.cnum(32)});
  f.ret();

  const Mft mft = build_single(prog);
  const analysis::ValueFlow vf(prog);
  SliceGenerator::Options options;
  options.valueflow = &vf;
  const SliceGenerator gen(mft, options);
  const struct {
    const char* key;
    const char* piece;
    int pieces;
  } kWant[] = {{"mac", "mac=%s", 2},
               {"sn", "sn=%s", 2},
               {"token", "token=%s", 3},
               {"sign", "sign=%s", 3}};
  for (const auto& want : kWant) {
    const FieldSlice* s = slice_with_key(gen.slices(), want.key);
    ASSERT_NE(s, nullptr) << want.key;
    EXPECT_EQ(s->format_piece, want.piece);
    EXPECT_EQ(s->split_delimiter, '&');
    EXPECT_EQ(s->split_pieces, want.pieces);
    EXPECT_GT(s->split_score, 0.0);
  }
  // Only a literal format operand is rendered, so only it is substituted.
  const std::string& mac_text = slice_with_key(gen.slices(), "mac")->slice_text;
  EXPECT_NE(mac_text.find("mac=%s"), std::string::npos);
  EXPECT_EQ(mac_text.find("sn=%s"), std::string::npos);
  // Without value flow the folded format is unknown: no keys from it.
  const SliceGenerator bare(mft);
  EXPECT_NE(slice_with_key(bare.slices(), "sn"), nullptr);
  EXPECT_EQ(slice_with_key(bare.slices(), "token"), nullptr);
}

TEST(SliceGenerator, RoleClassification) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode buf = f.local("buf", 128);
  f.callv("strcpy", {buf, f.cstr("/api/v1/register")});  // path
  f.callv("strcat", {buf, f.cstr("|")});                 // delimiter
  f.callv("strcat", {buf, f.call("nvram_get", {f.cstr("uid")}, "u")});
  f.copy(buf, f.cnum(0x1234567));                        // noise const
  const ir::VarNode key = f.call("read_file", {f.cstr("/etc/device.key")},
                                 "secret");
  f.callv("strcat", {buf, key});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(32)});
  f.ret();

  const Mft mft = build_single(prog);
  const SliceGenerator gen(mft);
  int paths = 0, delims = 0, fields = 0, file_fields = 0;
  for (const FieldSlice& s : gen.slices()) {
    switch (s.role) {
      case LeafRole::PathConst: ++paths; break;
      case LeafRole::Delimiter: ++delims; break;
      case LeafRole::Field:
        ++fields;
        if (s.leaf->detail == "/etc/device.key") ++file_fields;
        break;
      default: break;
    }
  }
  EXPECT_EQ(paths, 1);
  EXPECT_EQ(delims, 1);
  // uid + noise const + file read
  EXPECT_EQ(fields, 3);
  // The read_file path is a Field (the §IV-E <Var = Function(Const)>
  // pattern), not a PathConst.
  EXPECT_EQ(file_fields, 1);
}

TEST(SliceGenerator, MultiFieldFormatsCollected) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode a = f.call("nvram_get", {f.cstr("a")}, "a_val");
  const ir::VarNode c = f.call("nvram_get", {f.cstr("c")}, "c_val");
  const ir::VarNode buf = f.local("buf", 128);
  f.callv("sprintf", {buf, f.cstr("a=%s&c=%s"), a, c});
  const ir::VarNode single = f.local("single", 32);
  f.callv("sprintf", {single, f.cstr("x=%s"), a});
  f.callv("strcat", {buf, single});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(32)});
  f.ret();

  const Mft mft = build_single(prog);
  const SliceGenerator gen(mft);
  ASSERT_EQ(gen.multi_field_formats().size(), 1u);
  EXPECT_EQ(gen.multi_field_formats()[0], "a=%s&c=%s");
}

// --- static splitting machinery ----------------------------------------------

TEST(SplitFormat, DropsEmptyPieces) {
  const auto pieces = SliceGenerator::split_format("a&&b&", '&');
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
}

TEST(IdentifyDelimiter, QueryAmpersand) {
  EXPECT_EQ(SliceGenerator::identify_delimiter("uid=%s&ts=%s&lang=%s"), '&');
}

TEST(IdentifyDelimiter, JsonComma) {
  EXPECT_EQ(
      SliceGenerator::identify_delimiter("{\"mac\":\"%s\",\"sn\":\"%s\"}"),
      ',');
}

TEST(IdentifyDelimiter, NoneForSingleField) {
  EXPECT_EQ(SliceGenerator::identify_delimiter("hello %s"), '\0');
  EXPECT_EQ(SliceGenerator::identify_delimiter(""), '\0');
}

TEST(FieldPieces, RelaxedSplitForSingleConversion) {
  const auto pieces =
      SliceGenerator::field_pieces("?m=cloud&a=queryServices&uid=%s");
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "uid=%s");
}

TEST(PathPrefix, ExtractsLeadingPath) {
  EXPECT_EQ(SliceGenerator::path_prefix("?m=cloud&a=q&uid=%s"),
            "?m=cloud&a=q");
  // Path fused with the first key: split at '?'.
  EXPECT_EQ(SliceGenerator::path_prefix("/api/v1/x?deviceId=%s&ts=%s"),
            "/api/v1/x");
  EXPECT_EQ(SliceGenerator::path_prefix("/api/v1/x?deviceId=%s"),
            "/api/v1/x");
}

TEST(PathPrefix, EmptyForNonPath) {
  EXPECT_EQ(SliceGenerator::path_prefix("{\"a\":\"%s\"}"), "");
  EXPECT_EQ(SliceGenerator::path_prefix(""), "");
}

class ClusterThreshold : public ::testing::TestWithParam<double> {};

TEST_P(ClusterThreshold, PartitionProperties) {
  const std::vector<std::string> pieces = {
      "uid=%s",          "ts=%s",           "lang=%s",
      "\"mac\":\"%s\"",  "\"sn\":\"%s\"",   "alarm_time=%s",
      "uploadType=%s",   "\"token\":\"%s\"",
  };
  const auto clusters =
      SliceGenerator::cluster_pieces(pieces, GetParam());
  std::size_t total = 0;
  for (const auto& c : clusters) {
    EXPECT_FALSE(c.empty());
    total += c.size();
  }
  EXPECT_EQ(total, pieces.size());
  EXPECT_GE(clusters.size(), 1u);
  EXPECT_LE(clusters.size(), pieces.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClusterThreshold,
                         ::testing::Values(0.0, 0.3, 0.5, 0.6, 0.7, 0.9,
                                           1.0));

TEST(ClusterPieces, MonotoneNondecreasingInThreshold) {
  const std::vector<std::string> pieces = {
      "uid=%s", "ts=%s", "lang=%s", "\"mac\":\"%s\"", "\"sn\":\"%s\""};
  std::size_t prev = 0;
  for (const double t : {0.3, 0.5, 0.7, 0.9}) {
    const auto clusters = SliceGenerator::cluster_pieces(pieces, t);
    EXPECT_GE(clusters.size(), prev);
    prev = clusters.size();
  }
}

TEST(ClusterPieces, IdenticalPiecesOneCluster) {
  const std::vector<std::string> pieces = {"a=%s", "a=%s", "a=%s"};
  EXPECT_EQ(SliceGenerator::cluster_pieces(pieces, 0.99).size(), 1u);
}

TEST(ClusterPieces, EmptyInput) {
  EXPECT_TRUE(SliceGenerator::cluster_pieces({}, 0.5).empty());
}

}  // namespace
}  // namespace firmres::core
