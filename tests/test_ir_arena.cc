// Arena-storage contract tests (docs/IR.md): golden serializer byte
// identity across the arena refactor, string-interning dedup, dense-ID
// stability under builder reuse, and the out-of-range-ID failure mode.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "ir/arena.h"
#include "ir/builder.h"
#include "ir/library.h"
#include "ir/program.h"
#include "ir/serializer.h"
#include "support/error.h"
#include "support/json.h"

namespace firmres {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The golden document was serialized by the pre-arena IR (map-based symbol
// tables, per-op owned strings and operand vectors). Decoding it into the
// arena-backed Program and re-encoding must reproduce the bytes exactly:
// the storage refactor is not allowed to show up in any on-disk artifact.
TEST(IrArena, GoldenSerializerRoundTripIsByteIdentical) {
  const std::string golden =
      read_file(std::string(FIRMRES_TEST_DATA_DIR) +
                "/golden_program_device01.json");
  ASSERT_FALSE(golden.empty());

  const auto program = ir::program_from_json(golden);
  EXPECT_EQ(ir::program_to_json(*program).dump(), golden);

  // And a second decode of the re-encoded document converges (no drift on
  // repeated round trips).
  const std::string once = ir::program_to_json(*program).dump();
  const auto again = ir::program_from_json(once);
  EXPECT_EQ(ir::program_to_json(*again).dump(), once);
}

TEST(IrArena, StringTableInternsDeduplicated) {
  ir::StringTable table;
  EXPECT_EQ(table.size(), 1u);  // id 0 = "" is pre-seeded
  EXPECT_EQ(table.view(0), "");
  EXPECT_EQ(table.intern(""), 0u);

  const ir::StrId a = table.intern("deviceId");
  const ir::StrId b = table.intern("dev_secret");
  const ir::StrId a2 = table.intern("deviceId");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  // Dense creation order: first distinct string is 1, second is 2.
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(table.view(a), "deviceId");
  EXPECT_EQ(table.view(b), "dev_secret");
  EXPECT_EQ(table.size(), 3u);
}

TEST(IrArena, StringTableViewsStableAcrossGrowth) {
  ir::StringTable table;
  const std::string_view first = table.view(table.intern("sendto"));
  // Force enough growth that a vector-backed store would have reallocated.
  for (int i = 0; i < 5000; ++i) table.intern("key" + std::to_string(i));
  EXPECT_EQ(first, "sendto");
  EXPECT_EQ(table.view(1), "sendto");
}

TEST(IrArena, OperandSpansStableAcrossChunkGrowth) {
  ir::OperandArena arena;
  const ir::VarNode v{.space = ir::Space::Const, .offset = 7, .size = 4};
  const auto first = arena.copy({v, v, v});
  // Spill past several chunks; the first span must still read back intact.
  for (int i = 0; i < 10000; ++i) arena.copy({v});
  ASSERT_EQ(first.size(), 3u);
  for (const ir::VarNode& n : first) EXPECT_EQ(n.offset, 7u);
  EXPECT_EQ(arena.size(), 10003u);
}

TEST(IrArena, DenseFunctionIdsStableUnderBuilderReuse) {
  ir::Program program("arena_test");
  ir::IRBuilder builder(program);

  auto f1 = builder.function("collect_info");
  f1.call("sprintf", {f1.local("buf", 64), f1.cstr("%s"), f1.param("mac")});
  f1.ret();

  const ir::FuncId id1 = program.function_id("collect_info");
  EXPECT_EQ(program.function("collect_info")->id(), id1);
  const ir::Function* before = program.function_by_id(id1);

  // Reusing the same builder for more functions must not move or renumber
  // anything created earlier — ids are creation-ordered and never reused.
  auto f2 = builder.function("send_report");
  f2.callv("sendto", {f2.param("fd"), f2.local("msg", 64)});
  f2.ret();

  EXPECT_EQ(program.function_id("collect_info"), id1);
  EXPECT_EQ(program.function_by_id(id1), before);
  const ir::FuncId id2 = program.function_id("send_report");
  EXPECT_NE(id2, id1);
  EXPECT_EQ(program.functions()[id2]->name(), "send_report");

  // Every function's position in creation order IS its id.
  for (ir::FuncId i = 0; i < program.functions().size(); ++i)
    EXPECT_EQ(program.functions()[i]->id(), i);

  // Call ops carry pre-resolved dense ids: the builder auto-registered the
  // sprintf/sendto imports, so callee_fn and lib_id are already filled.
  const ir::Function* sender = program.function("send_report");
  for (const auto& block : sender->blocks()) {
    for (const auto& op : block.ops) {
      if (op.opcode != ir::OpCode::Call) continue;
      EXPECT_EQ(op.callee, "sendto");
      EXPECT_EQ(op.callee_fn, program.function_id("sendto"));
      EXPECT_EQ(op.callee_id, program.strings().intern("sendto"));
      ASSERT_NE(op.lib(), nullptr);
      EXPECT_EQ(op.lib()->name, "sendto");
    }
  }
}

TEST(IrArena, OutOfRangeIdsThrow) {
  ir::StringTable table;
  EXPECT_THROW(table.view(1), support::InternalError);
  EXPECT_THROW(table.view(0xFFFFFFFFu), support::InternalError);

  ir::Program program("arena_test");
  // kNoFunc is the sanctioned "no callee" sentinel, not an error...
  EXPECT_EQ(program.function_by_id(ir::kNoFunc), nullptr);
  // ...but any other id outside [0, functions().size()) is a corrupted id.
  EXPECT_THROW(program.function_by_id(0), support::InternalError);
  program.add_function("only", /*is_import=*/false);
  EXPECT_NE(program.function_by_id(0), nullptr);
  EXPECT_THROW(program.function_by_id(1), support::InternalError);

  // LibId 0 means "not a library function"; out-of-range ids throw.
  EXPECT_EQ(ir::LibraryModel::by_id(0), nullptr);
  EXPECT_THROW(ir::LibraryModel::by_id(0xFFFF), support::InternalError);
}

TEST(IrArena, SetCallTargetKeepsResolutionsInSync) {
  ir::Program program("arena_test");
  ir::Function& fn = program.add_function("local_fn", /*is_import=*/false);
  program.add_function("recv", /*is_import=*/true);

  ir::PcodeOp op;
  op.opcode = ir::OpCode::Call;
  program.set_call_target(op, "recv");
  EXPECT_EQ(op.callee, "recv");
  EXPECT_EQ(op.callee_fn, program.function_id("recv"));
  EXPECT_EQ(program.strings().view(op.callee_id), "recv");
  ASSERT_NE(op.lib(), nullptr);
  EXPECT_EQ(op.lib()->name, "recv");

  // A target outside the program and the library model resolves to the
  // sentinels, never to garbage.
  ir::PcodeOp unknown;
  program.set_call_target(unknown, "vendor_private_fn");
  EXPECT_EQ(unknown.callee_fn, ir::kNoFunc);
  EXPECT_EQ(unknown.lib(), nullptr);
  EXPECT_EQ(unknown.callee, "vendor_private_fn");
  (void)fn;
}

}  // namespace
}  // namespace firmres
