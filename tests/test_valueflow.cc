// Value-flow tests: one fixture per lattice transfer (Copy, Piece/SubPiece/
// PtrAdd, integer arithmetic, library string summaries, format expansion),
// interprocedural summaries, CallInd devirtualization, plus the corpus
// property tests — folded strings agree with the synthesizer's ground-truth
// message_spec constants, and results are byte-identical at any jobs level.
#include "analysis/valueflow/valueflow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/call_graph.h"
#include "core/exec_identifier.h"
#include "firmware/synthesizer.h"
#include "ir/builder.h"
#include "support/thread_pool.h"

namespace firmres::analysis {
namespace {

using ir::VarNode;
using valueflow::Value;

TEST(ValueLattice, MeetRules) {
  const Value c7 = Value::constant(7);
  const Value c9 = Value::constant(9);
  const Value s = Value::str("abc");
  EXPECT_EQ(Value::meet(Value::top(), c7), c7);
  EXPECT_EQ(Value::meet(c7, Value::top()), c7);
  EXPECT_EQ(Value::meet(c7, c7), c7);
  EXPECT_TRUE(Value::meet(c7, c9).is_bottom());
  EXPECT_TRUE(Value::meet(c7, s).is_bottom());
  EXPECT_TRUE(Value::meet(Value::bottom(), Value::top()).is_bottom());
}

TEST(ValueLattice, OversizedStringsDoNotFold) {
  EXPECT_TRUE(Value::str(std::string(Value::kMaxStringLength, 'x')).is_str());
  EXPECT_TRUE(
      Value::str(std::string(Value::kMaxStringLength + 1, 'x')).is_bottom());
}

TEST(ValueFlowTransfer, CopyFoldsConstantsAndStrings) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode c = f.local("c", 8);
  f.copy(c, f.cnum(42, 8));
  const VarNode s = f.local("s", 8);
  f.copy(s, f.cstr("hello"));
  f.ret();

  const ValueFlow vf(prog);
  const ir::Function* fn = prog.function("main");
  EXPECT_EQ(vf.constant_of(fn, c), 42u);
  EXPECT_EQ(vf.string_of(fn, s), "hello");
}

TEST(ValueFlowTransfer, IntegerArithmeticFolds) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode sum = f.binop(ir::OpCode::IntAdd, f.cnum(2), f.cnum(3));
  const VarNode prod = f.binop(ir::OpCode::IntMult, f.cnum(6), f.cnum(7));
  const VarNode diff = f.binop(ir::OpCode::IntSub, f.cnum(10), f.cnum(4));
  const VarNode div0 = f.binop(ir::OpCode::IntDiv, f.cnum(1), f.cnum(0));
  const VarNode lt = f.cmp_lt(f.cnum(3), f.cnum(5));
  f.ret();

  const ValueFlow vf(prog);
  const ir::Function* fn = prog.function("main");
  EXPECT_EQ(vf.constant_of(fn, sum), 5u);
  EXPECT_EQ(vf.constant_of(fn, prod), 42u);
  EXPECT_EQ(vf.constant_of(fn, diff), 6u);
  EXPECT_EQ(vf.constant_of(fn, div0), std::nullopt);  // division by zero: ⊥
  EXPECT_EQ(vf.constant_of(fn, lt), 1u);
}

TEST(ValueFlowTransfer, PieceConcatenatesAndPacks) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode cat =
      f.binop(ir::OpCode::Piece, f.cstr("dev"), f.cstr("ice"));
  const VarNode packed =
      f.binop(ir::OpCode::Piece, f.cnum(0x12, 2), f.cnum(0x34, 1));
  f.ret();

  const ValueFlow vf(prog);
  const ir::Function* fn = prog.function("main");
  EXPECT_EQ(vf.string_of(fn, cat), "device");
  EXPECT_EQ(vf.constant_of(fn, packed), 0x1234u);
}

TEST(ValueFlowTransfer, SubPieceAndPtrAddTakeSuffixes) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode sub =
      f.binop(ir::OpCode::SubPiece, f.cstr("abcdef"), f.cnum(2));
  const VarNode shifted =
      f.binop(ir::OpCode::SubPiece, f.cnum(0x1234, 8), f.cnum(1));
  const VarNode suffix =
      f.binop(ir::OpCode::PtrAdd, f.cstr("key=val"), f.cnum(4));
  f.ret();

  const ValueFlow vf(prog);
  const ir::Function* fn = prog.function("main");
  EXPECT_EQ(vf.string_of(fn, sub), "cdef");
  EXPECT_EQ(vf.constant_of(fn, shifted), 0x12u);
  EXPECT_EQ(vf.string_of(fn, suffix), "val");
}

TEST(ValueFlowTransfer, StrcpyAndAtoiSummaries) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode buf = f.local("buf", 64);
  f.callv("strcpy", {buf, f.cstr("?m=cloud&uid=%s")});
  const VarNode n = f.call("atoi", {f.cstr("42")});
  f.ret();

  const ValueFlow vf(prog);
  const ir::Function* fn = prog.function("main");
  EXPECT_EQ(vf.string_of(fn, buf), "?m=cloud&uid=%s");
  EXPECT_EQ(vf.constant_of(fn, n), 42u);
}

TEST(ValueFlowTransfer, StrcatOnReusedBufferStaysConservative) {
  // strcpy then strcat redefine the same buffer; the flow-insensitive env
  // meets both definitions, so the accumulated content must NOT fold to
  // either intermediate state (soundness over precision).
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode buf = f.local("buf", 64);
  f.callv("strcpy", {buf, f.cstr("GET /")});
  f.callv("strcat", {buf, f.cstr("status")});
  f.ret();

  const ValueFlow vf(prog);
  EXPECT_EQ(vf.string_of(prog.function("main"), buf), std::nullopt);
}

TEST(ValueFlowTransfer, SprintfExpandsRecoverableFormats) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode buf = f.local("buf", 128);
  f.callv("sprintf",
          {buf, f.cstr("a=%s,b=%d"), f.cstr("xyz"), f.cnum(5)});
  const VarNode nbuf = f.local("nbuf", 128);
  f.callv("snprintf",
          {nbuf, f.cnum(128), f.cstr("v=%u"), f.cnum(9)});
  const VarNode wbuf = f.local("wbuf", 128);
  f.callv("sprintf", {wbuf, f.cstr("pad=%08x"), f.cnum(1)});
  f.ret();

  const ValueFlow vf(prog);
  const ir::Function* fn = prog.function("main");
  EXPECT_EQ(vf.string_of(fn, buf), "a=xyz,b=5");
  EXPECT_EQ(vf.string_of(fn, nbuf), "v=9");
  // Width/flag specifiers change the expansion — no guessing, no fold.
  EXPECT_EQ(vf.string_of(fn, wbuf), std::nullopt);
}

TEST(ValueFlowTransfer, SprintfWithUnknownArgumentStaysUnknown) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode buf = f.local("buf", 128);
  const VarNode v = f.call("nvram_get", {f.cstr("mac")}, "mac");
  f.callv("sprintf", {buf, f.cstr("mac=%s"), v});
  f.ret();

  const ValueFlow vf(prog);
  EXPECT_EQ(vf.string_of(prog.function("main"), buf), std::nullopt);
}

TEST(ValueFlowInterprocedural, ParameterAndReturnSummariesPropagate) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  VarNode x;
  {
    ir::FunctionBuilder g = b.function("g");
    x = g.param("x");
    g.ret(x);
  }
  VarNode r;
  {
    ir::FunctionBuilder f = b.function("main");
    r = f.call("g", {f.cnum(7, 8)}, "r");
    f.ret();
  }

  const ValueFlow vf(prog);
  EXPECT_EQ(vf.constant_of(prog.function("g"), x), 7u);
  EXPECT_EQ(vf.constant_of(prog.function("main"), r), 7u);
}

TEST(ValueFlowInterprocedural, DisagreeingCallsitesMeetToBottom) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  VarNode x;
  {
    ir::FunctionBuilder g = b.function("g");
    x = g.param("x");
    g.ret(x);
  }
  {
    ir::FunctionBuilder f = b.function("main");
    f.callv("g", {f.cnum(7, 8)});
    f.callv("g", {f.cnum(9, 8)});
    f.ret();
  }

  const ValueFlow vf(prog);
  EXPECT_EQ(vf.constant_of(prog.function("g"), x), std::nullopt);
}

TEST(ValueFlowDevirtualization, FunctionPointerCopyResolvesCallInd) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  {
    ir::FunctionBuilder t = b.function("target");
    t.ret();
  }
  {
    ir::FunctionBuilder f = b.function("main");
    const VarNode slot = f.local("slot", 8);
    f.copy(slot, f.func_addr("target"));
    f.call_indirect(slot, {});
    f.ret();
  }

  const ValueFlow vf(prog);
  ASSERT_EQ(vf.indirect_sites().size(), 1u);
  EXPECT_EQ(vf.indirect_sites()[0].caller, prog.function("main"));
  EXPECT_EQ(vf.indirect_sites()[0].target, prog.function("target"));
  EXPECT_EQ(vf.stats().indirect_total, 1u);
  EXPECT_EQ(vf.stats().indirect_resolved, 1u);
  EXPECT_EQ(vf.resolved_target(vf.indirect_sites()[0].op),
            prog.function("target"));
}

TEST(ValueFlowDevirtualization, OpaquePointerStaysUnresolved) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  {
    ir::FunctionBuilder f = b.function("main");
    const VarNode slot = f.call("dlsym", {f.cstr("handler")}, "slot");
    f.call_indirect(slot, {});
    f.ret();
  }

  const ValueFlow vf(prog);
  ASSERT_EQ(vf.indirect_sites().size(), 1u);
  EXPECT_EQ(vf.indirect_sites()[0].target, nullptr);
  EXPECT_EQ(vf.stats().indirect_resolved, 0u);
}

TEST(ValueFlowDevirtualization, FoldedEventRegistrationIsReported) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  {
    ir::FunctionBuilder h = b.function("handler");
    h.ret();
  }
  {
    ir::FunctionBuilder f = b.function("main");
    const VarNode slot = f.local("cb", 8);
    f.copy(slot, f.func_addr("handler"));
    f.callv("event_loop_register", {f.local("loop"), slot});
    f.ret();
  }

  const ValueFlow vf(prog);
  ASSERT_EQ(vf.folded_event_callbacks().size(), 1u);
  EXPECT_EQ(vf.folded_event_callbacks()[0], prog.function("handler"));
}

TEST(ValueFlowDevirtualization, ResolvedArgumentsFeedTargetParameters) {
  // The devirtualized callsite's argument (at arg_offset 1 past the pointer
  // operand) must reach the target's parameter summary.
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  VarNode x;
  {
    ir::FunctionBuilder t = b.function("target");
    x = t.param("x");
    t.ret();
  }
  {
    ir::FunctionBuilder f = b.function("main");
    const VarNode slot = f.local("slot", 8);
    f.copy(slot, f.func_addr("target"));
    f.call_indirect(slot, {f.cnum(11, 8)});
    f.ret();
  }

  const ValueFlow vf(prog);
  EXPECT_EQ(vf.constant_of(prog.function("target"), x), 11u);
}

// ---------------------------------------------------------------------------
// §IV-A: the identification gap closed by devirtualization
// ---------------------------------------------------------------------------

TEST(ValueFlowDevirtualization, RecoversHandlerSendingThroughFunctionPointer) {
  const fw::DeviceProfile profile = fw::profile_by_id(13);
  ASSERT_TRUE(profile.indirect_dispatch);
  const fw::FirmwareImage image = fw::synthesize(profile);
  const fw::FirmwareFile* file =
      image.file(image.truth.device_cloud_executable);
  ASSERT_NE(file, nullptr);
  const ir::Program& prog = *file->program;

  // The reply sender is reachable only through the dispatch slot: without
  // devirtualization the recv handler has no path to any send callsite and
  // §IV-A misses the genuine device-cloud executable.
  const CallGraph plain(prog);
  const ValueFlow vf(prog);
  const CallGraph devirt(prog, vf);
  const core::ExecutableIdentifier identifier;
  EXPECT_FALSE(identifier.analyze(prog, plain).is_device_cloud);
  EXPECT_TRUE(identifier.analyze(prog, devirt).is_device_cloud);

  // The recovered reachability is exactly one devirtualized edge from the
  // event-registered handler to the sender.
  const ir::Function* handler = prog.function("on_cloud_request");
  const ir::Function* sender = prog.function("send_reply");
  ASSERT_NE(handler, nullptr);
  ASSERT_NE(sender, nullptr);
  EXPECT_TRUE(plain.is_event_registered(handler));
  EXPECT_EQ(plain.distance(handler, sender), -1);
  EXPECT_EQ(devirt.distance(handler, sender), 1);
  // Direct-call views stay direct: the handler still has no direct callers,
  // so the asynchrony test of §IV-A is unaffected.
  EXPECT_FALSE(devirt.has_direct_callers(handler));
  EXPECT_TRUE(devirt.callees(handler).empty() ||
              std::find(devirt.callees(handler).begin(),
                        devirt.callees(handler).end(),
                        sender) == devirt.callees(handler).end());
}

// ---------------------------------------------------------------------------
// Corpus property tests
// ---------------------------------------------------------------------------

TEST(ValueFlowCorpus, FoldedStringsAgreeWithGroundTruthConstants) {
  // Every hard-coded ground-truth field constant the synthesizer burned into
  // a device-cloud program must appear among the value-flow folded strings.
  int hardcoded_fields = 0;
  for (const fw::DeviceProfile& profile : fw::standard_corpus()) {
    if (profile.script_based) continue;
    if (profile.id > 10) break;  // first half of the corpus is plenty
    const fw::FirmwareImage image = fw::synthesize(profile);
    const fw::FirmwareFile* file =
        image.file(image.truth.device_cloud_executable);
    ASSERT_NE(file, nullptr);
    const ir::Program& prog = *file->program;
    const ValueFlow vf(prog);

    std::set<std::string> folded;
    for (const ir::Function* fn : prog.functions()) {
      if (fn->is_import()) continue;
      for (const ir::PcodeOp* op : fn->ops_in_order())
        for (const ir::VarNode& v : op->inputs)
          if (const auto s = vf.string_of(fn, v)) folded.insert(*s);
    }
    for (const fw::MessageTruth& mt : image.truth.messages) {
      for (const fw::FieldSpec& fs : mt.spec.fields) {
        if (fs.origin != fw::FieldOrigin::HardcodedStr) continue;
        ++hardcoded_fields;
        EXPECT_TRUE(folded.count(fs.value) > 0)
            << "device " << profile.id << ": hard-coded constant '"
            << fs.value << "' of field '" << fs.key << "' did not fold";
      }
    }
  }
  EXPECT_GT(hardcoded_fields, 0);
}

/// Render every fact the analysis exposes, for bitwise comparison.
std::string render(const ValueFlow& vf) {
  std::string out;
  for (const ir::Function* fn : vf.program().functions()) {
    if (fn->is_import()) continue;
    out += fn->name();
    out += '\n';
    for (const ir::PcodeOp* op : fn->ops_in_order()) {
      for (const ir::VarNode& v : op->inputs)
        out += "  " + vf.value_of(fn, v).to_string();
      if (op->output.has_value())
        out += " -> " + vf.value_of(fn, *op->output).to_string();
      out += '\n';
    }
  }
  for (const ValueFlow::IndirectSite& site : vf.indirect_sites()) {
    out += site.caller->name() + " calls ";
    out += site.target != nullptr ? site.target->name() : "?";
    out += '\n';
  }
  for (const ir::Function* cb : vf.folded_event_callbacks())
    out += "folded " + cb->name() + '\n';
  out += std::to_string(vf.stats().indirect_total) + "/" +
         std::to_string(vf.stats().indirect_resolved) + "/" +
         std::to_string(vf.stats().folded_constants);
  return out;
}

TEST(ValueFlowCorpus, ResultsAreIdenticalAtAnyJobsLevel) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(13));
  support::ThreadPool pool(8);
  int compared = 0;
  for (const ir::Program* prog : image.executables()) {
    const ValueFlow sequential(*prog);
    const ValueFlow parallel(*prog, &pool);
    EXPECT_EQ(render(sequential), render(parallel)) << prog->name();
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

}  // namespace
}  // namespace firmres::analysis
