// §IV-A tests: request-handler scoring (string-parsing factor) and
// asynchronous-handler identification, over handcrafted programs that
// exercise every accept/reject path of Fig. 4.
#include "core/exec_identifier.h"

#include <gtest/gtest.h>

#include "analysis/valueflow/valueflow.h"
#include "ir/builder.h"

namespace firmres::core {
namespace {

/// §IV-A over the program's devirtualized call graph, as the pipeline
/// runs it.
ExecIdentification identify(const ir::Program& prog,
                            ExecutableIdentifier::Options options = {}) {
  const analysis::ValueFlow vf(prog);
  const analysis::CallGraph cg(prog, vf);
  return ExecutableIdentifier(options).analyze(prog, cg);
}

/// Emit `n` predicates comparing request-derived bytes against constants.
void emit_request_predicates(ir::FunctionBuilder& f, const ir::VarNode& buf,
                             int n) {
  for (int i = 0; i < n; ++i) {
    const ir::VarNode byte = f.load(buf);
    const ir::VarNode c =
        f.cmp_eq(byte, f.cnum(static_cast<std::uint64_t>('A' + i)));
    const int tb = f.new_block();
    const int fb = f.new_block();
    f.cbranch(c, tb, fb);
    f.set_block(tb);
    f.callv("syslog", {f.cnum(6), f.cstr("match")});
    f.branch(fb);
    f.set_block(fb);
  }
}

/// Emit `n` predicates over untainted bookkeeping state.
void emit_local_predicates(ir::FunctionBuilder& f, int n) {
  for (int i = 0; i < n; ++i) {
    const ir::VarNode counter =
        f.local("counter_" + std::to_string(i));
    const ir::VarNode c = f.cmp_lt(counter, f.cnum(10));
    const int tb = f.new_block();
    const int fb = f.new_block();
    f.cbranch(c, tb, fb);
    f.set_block(tb);
    f.callv("sleep", {f.cnum(1)});
    f.branch(fb);
    f.set_block(fb);
  }
}

/// Handler with recv→parse→send; `request_preds` tainted vs `local_preds`
/// untainted predicates; async = event-registered vs direct call from main.
ir::Program make_program(int request_preds, int local_preds, bool async) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  {
    ir::FunctionBuilder f = b.function("handler");
    const ir::VarNode sock = f.param("sock");
    const ir::VarNode buf = f.local("buf", 512);
    f.callv("recv", {sock, buf, f.cnum(512), f.cnum(0)});
    emit_request_predicates(f, buf, request_preds);
    emit_local_predicates(f, local_preds);
    const ir::VarNode resp = f.local("resp", 64);
    f.callv("sprintf", {resp, f.cstr("ok %d"), f.cnum(0)});
    f.callv("send", {sock, resp, f.cnum(2), f.cnum(0)});
    f.ret();
  }
  {
    ir::FunctionBuilder f = b.function("main");
    const ir::VarNode loop = f.local("loop");
    if (async) {
      f.callv("event_loop_register", {loop, f.func_addr("handler")});
    } else {
      f.callv("handler", {loop});
    }
    f.ret(f.cnum(0));
  }
  return prog;
}

TEST(ExecIdentifier, AsyncHighPfIsDeviceCloud) {
  const ir::Program prog = make_program(8, 1, /*async=*/true);
  const ExecIdentification id = identify(prog);
  ASSERT_EQ(id.candidates.size(), 1u);
  EXPECT_TRUE(id.candidates[0].is_request_handler);
  EXPECT_TRUE(id.candidates[0].asynchronous);
  EXPECT_TRUE(id.is_device_cloud);
  EXPECT_GE(id.candidates[0].score, 0.3);
}

TEST(ExecIdentifier, SyncHandlerRejected) {
  // The Fig. 4 pair-1 case: high P_f but directly invoked (a LAN httpd).
  const ir::Program prog = make_program(8, 1, /*async=*/false);
  const ExecIdentification id = identify(prog);
  ASSERT_EQ(id.candidates.size(), 1u);
  EXPECT_TRUE(id.candidates[0].is_request_handler);
  EXPECT_FALSE(id.candidates[0].asynchronous);
  EXPECT_FALSE(id.is_device_cloud);
}

TEST(ExecIdentifier, LowPfRejected) {
  // The IPC-daemon case: async dispatch but predicates inspect local state.
  const ir::Program prog = make_program(1, 9, /*async=*/true);
  const ExecIdentification id = identify(prog);
  ASSERT_EQ(id.candidates.size(), 1u);
  EXPECT_TRUE(id.candidates[0].asynchronous);
  EXPECT_FALSE(id.candidates[0].is_request_handler);
  EXPECT_FALSE(id.is_device_cloud);
}

TEST(ExecIdentifier, NoAnchorsNoCandidates) {
  ir::Program prog("util");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  f.callv("printf", {f.cstr("hello")});
  f.ret(f.cnum(0));
  const ExecIdentification id = identify(prog);
  EXPECT_TRUE(id.candidates.empty());
  EXPECT_FALSE(id.is_device_cloud);
}

TEST(ExecIdentifier, ScoreReflectsParsingDensity) {
  const ir::Program dense = make_program(9, 0, true);
  const ir::Program sparse = make_program(1, 9, true);
  const auto id_dense = identify(dense);
  const auto id_sparse = identify(sparse);
  ASSERT_EQ(id_dense.candidates.size(), 1u);
  ASSERT_EQ(id_sparse.candidates.size(), 1u);
  EXPECT_GT(id_dense.candidates[0].score, id_sparse.candidates[0].score);
}

TEST(ExecIdentifier, ParserFunctionIdentified) {
  const ir::Program prog = make_program(6, 0, true);
  const auto id = identify(prog);
  ASSERT_EQ(id.candidates.size(), 1u);
  ASSERT_NE(id.candidates[0].parser, nullptr);
  EXPECT_EQ(id.candidates[0].parser->name(), "handler");
}

TEST(ExecIdentifier, SequenceIncludesCalleeHelpers) {
  // Parsing delegated to a helper: the sequence must include it and the
  // score must come from the helper (the "main parsing function").
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  {
    ir::FunctionBuilder f = b.function("parse");
    const ir::VarNode req = f.param("req");
    emit_request_predicates(f, req, 8);
    f.ret(f.load(req));
  }
  {
    ir::FunctionBuilder f = b.function("handler");
    const ir::VarNode sock = f.param("sock");
    const ir::VarNode buf = f.local("buf", 512);
    f.callv("recv", {sock, buf, f.cnum(512), f.cnum(0)});
    f.call("parse", {buf}, "cmd");
    f.callv("send", {sock, buf, f.cnum(4), f.cnum(0)});
    f.ret();
  }
  {
    ir::FunctionBuilder f = b.function("main");
    f.callv("event_loop_register", {f.local("loop"), f.func_addr("handler")});
    f.ret(f.cnum(0));
  }
  const auto id = identify(prog);
  ASSERT_EQ(id.candidates.size(), 1u);
  EXPECT_TRUE(id.is_device_cloud);
  ASSERT_NE(id.candidates[0].parser, nullptr);
  EXPECT_EQ(id.candidates[0].parser->name(), "parse");
}

// --- Ablation options --------------------------------------------------------

TEST(ExecIdentifierAblation, NaiveModeAcceptsIpcDaemons) {
  const ir::Program ipc = make_program(1, 9, /*async=*/true);
  ExecutableIdentifier::Options opts;
  opts.use_pf_scoring = false;
  const auto id = identify(ipc, opts);
  EXPECT_TRUE(id.is_device_cloud);  // false positive by design
}

TEST(ExecIdentifierAblation, NoAsyncFilterAcceptsLanServers) {
  const ir::Program httpd = make_program(8, 1, /*async=*/false);
  ExecutableIdentifier::Options opts;
  opts.require_async = false;
  const auto id = identify(httpd, opts);
  EXPECT_TRUE(id.is_device_cloud);  // false positive by design
}

class PfThreshold : public ::testing::TestWithParam<double> {};

TEST_P(PfThreshold, MonotoneInThreshold) {
  const ir::Program prog = make_program(5, 5, /*async=*/true);
  ExecutableIdentifier::Options opts;
  opts.pf_threshold = GetParam();
  const auto id = identify(prog, opts);
  ASSERT_EQ(id.candidates.size(), 1u);
  EXPECT_EQ(id.candidates[0].is_request_handler,
            id.candidates[0].score >= GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, PfThreshold,
                         ::testing::Values(0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                           0.75, 1.0));

}  // namespace
}  // namespace firmres::core
