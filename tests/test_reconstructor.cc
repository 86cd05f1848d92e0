// Message-reconstruction tests (§IV-D): LAN filtering, format inference,
// field ordering via simplify+invert, host/endpoint recovery.
#include "core/reconstructor.h"

#include <gtest/gtest.h>

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

const KeywordModel kModel;

TEST(Reconstructor, CJsonMessageFieldOrder) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode obj = f.call("cJSON_CreateObject", {}, "obj");
  f.callv("cJSON_AddStringToObject",
          {obj, f.cstr("deviceId"),
           f.call("nvram_get", {f.cstr("device_id")}, "deviceId_val")});
  f.callv("cJSON_AddStringToObject",
          {obj, f.cstr("token"),
           f.call("nvram_get", {f.cstr("cloud_token")}, "token_val")});
  f.callv("cJSON_AddStringToObject",
          {obj, f.cstr("ts"), f.call("time", {f.cnum(0)}, "ts_val")});
  const ir::VarNode body = f.call("cJSON_PrintUnformatted", {obj}, "body");
  const ir::VarNode len = f.call("strlen", {body});
  f.callv("http_post",
          {f.cstr("https://iot.acme-cloud.example.com/api/v1/status"), body,
           len});
  f.ret();

  const Mft mft = build_single(prog);
  const Reconstructor rec(kModel);
  const auto msg = rec.reconstruct_one(mft, "/usr/bin/cloudd");
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->format, fw::WireFormat::Json);
  ASSERT_EQ(msg->fields.size(), 3u);
  // §IV-D inversion restores concatenation order.
  EXPECT_EQ(msg->fields[0].key, "deviceId");
  EXPECT_EQ(msg->fields[1].key, "token");
  EXPECT_EQ(msg->fields[2].key, "ts");
  EXPECT_EQ(msg->fields[0].semantics, fw::Primitive::DevIdentifier);
  EXPECT_EQ(msg->fields[1].semantics, fw::Primitive::BindToken);
  EXPECT_EQ(msg->fields[2].semantics, fw::Primitive::None);
}

TEST(Reconstructor, QueryMessage) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode uid = f.call("nvram_get", {f.cstr("uid")}, "uid_val");
  const ir::VarNode buf = f.local("buf", 128);
  f.callv("sprintf", {buf, f.cstr("?m=cloud&a=queryServices&uid=%s"), uid});
  const ir::VarNode url = f.local("url", 256);
  f.callv("sprintf", {url, f.cstr("http://%s%s"),
                      f.cstr("iot.cubetoou-cloud.example.com"), buf});
  f.callv("http_get", {url});
  f.ret();

  const Mft mft = build_single(prog);
  const Reconstructor rec(kModel);
  const auto msg = rec.reconstruct_one(mft, "/usr/bin/cloudd");
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->format, fw::WireFormat::Query);
  EXPECT_EQ(msg->endpoint_path, "?m=cloud&a=queryServices");
  EXPECT_EQ(msg->host, "iot.cubetoou-cloud.example.com");
  ASSERT_GE(msg->fields.size(), 1u);
  EXPECT_EQ(msg->fields[0].key, "uid");
}

TEST(Reconstructor, LanDestinationDiscarded) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode buf = f.local("buf", 64);
  f.callv("sprintf", {buf, f.cstr("{\"mac\":\"%s\"}"),
                      f.call("nvram_get", {f.cstr("mac")}, "mac_val")});
  const ir::VarNode url = f.local("url", 128);
  f.callv("sprintf",
          {url, f.cstr("http://%s%s"), f.cstr("192.168.1.50"),
           f.cstr("/local/sync")});
  const ir::VarNode len = f.call("strlen", {buf});
  f.callv("http_post", {url, buf, len});
  f.ret();

  const Mft mft = build_single(prog);
  const Reconstructor rec(kModel);
  EXPECT_FALSE(rec.reconstruct_one(mft, "x").has_value());
  ReconstructionResult result = rec.reconstruct({}, "x");
  EXPECT_EQ(result.discarded_lan, 0);
}

// std::string, not const char*: gtest prints a char pointer inside a pair
// with its address, which would make the test names differ per process.
using LanCase = std::pair<std::string, bool>;
class LanAddress : public ::testing::TestWithParam<LanCase> {};

TEST_P(LanAddress, Classification) {
  const auto [text, is_lan] = GetParam();
  EXPECT_EQ(Reconstructor::is_lan_address(text), is_lan) << text;
}

INSTANTIATE_TEST_SUITE_P(
    Table, LanAddress,
    ::testing::Values(
        LanCase{"10.0.0.1", true},
        LanCase{"10.255.255.255", true},
        LanCase{"172.16.0.1", true},
        LanCase{"172.31.4.4", true},
        LanCase{"172.15.0.1", false},   // below private range
        LanCase{"172.32.0.1", false},   // above private range
        LanCase{"192.168.4.20", true},
        LanCase{"192.169.1.1", false},
        LanCase{"224.0.0.1", true},     // multicast
        LanCase{"239.255.255.250", true},
        LanCase{"255.255.255.255", true},  // broadcast
        LanCase{"FE80::1", true},       // IPv6 link-local
        LanCase{"fe80::abcd", true},
        LanCase{"8.8.8.8", false},
        LanCase{"iot.vendor-cloud.example.com", false},
        LanCase{"a01.04.05.0020", false},  // not a dotted quad
        LanCase{"", false}));

TEST(Reconstructor, KeyValueConcatMessage) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode buf = f.local("buf", 64);
  f.callv("strcpy", {buf, f.cstr("/rms/register")});
  f.callv("strcat", {buf, f.cstr("|")});
  f.callv("strcat", {buf, f.call("nvram_get", {f.cstr("serial_no")}, "sn_val")});
  f.callv("strcat", {buf, f.cstr("|")});
  f.callv("strcat", {buf, f.call("nvram_get", {f.cstr("et0macaddr")}, "mac_val")});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(64)});
  f.ret();

  const Mft mft = build_single(prog);
  const Reconstructor rec(kModel);
  const auto msg = rec.reconstruct_one(mft, "/usr/sbin/rms_connect");
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->format, fw::WireFormat::KeyValue);
  EXPECT_EQ(msg->endpoint_path, "/rms/register");
  EXPECT_TRUE(msg->host.empty());  // "not directly evident" (§V-C)
  ASSERT_EQ(msg->fields.size(), 2u);
  // Concat order restored: serial first, MAC second.
  EXPECT_EQ(msg->fields[0].source_detail, "serial_no");
  EXPECT_EQ(msg->fields[1].source_detail, "et0macaddr");
  // Keyless fields fall back to the source hint.
  EXPECT_EQ(msg->fields[0].key, "serial_no");
}

TEST(Reconstructor, HardcodedFieldsAreMarked) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode obj = f.call("cJSON_CreateObject", {}, "obj");
  f.callv("cJSON_AddStringToObject",
          {obj, f.cstr("deviceToken"), f.cstr("FIXED-TOKEN-8f2a11c09d")});
  const ir::VarNode body = f.call("cJSON_PrintUnformatted", {obj}, "body");
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, body, f.cnum(32)});
  f.ret();

  const Mft mft = build_single(prog);
  const Reconstructor rec(kModel);
  const auto msg = rec.reconstruct_one(mft, "x");
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->fields.size(), 1u);
  EXPECT_TRUE(msg->fields[0].hardcoded);
  EXPECT_EQ(msg->fields[0].const_value, "FIXED-TOKEN-8f2a11c09d");
  EXPECT_EQ(msg->fields[0].source, FieldValueSource::StringConst);
  EXPECT_EQ(msg->fields[0].semantics, fw::Primitive::BindToken);
}

TEST(Reconstructor, DerivedSignatureSource) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("send_msg");
  const ir::VarNode secret =
      f.call("nvram_get", {f.cstr("dev_secret")}, "secret_sign_val");
  const ir::VarNode sign = f.call("md5_hex", {secret}, "sign_val");
  const ir::VarNode obj = f.call("cJSON_CreateObject", {}, "obj");
  f.callv("cJSON_AddStringToObject", {obj, f.cstr("sign"), sign});
  const ir::VarNode body = f.call("cJSON_PrintUnformatted", {obj}, "body");
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, body, f.cnum(32)});
  f.ret();

  const Mft mft = build_single(prog);
  const Reconstructor rec(kModel);
  const auto msg = rec.reconstruct_one(mft, "x");
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->fields.size(), 1u);
  EXPECT_EQ(msg->fields[0].source, FieldValueSource::Derived);
  EXPECT_EQ(msg->fields[0].semantics, fw::Primitive::Signature);
}

TEST(Reconstructor, HasPrimitiveHelper) {
  ReconstructedMessage msg;
  ReconstructedField f;
  f.semantics = fw::Primitive::DevIdentifier;
  msg.fields.push_back(f);
  EXPECT_TRUE(msg.has_primitive(fw::Primitive::DevIdentifier));
  EXPECT_FALSE(msg.has_primitive(fw::Primitive::DevSecret));
}

}  // namespace
}  // namespace firmres::core
