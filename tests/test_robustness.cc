// Robustness suite: randomized program generation ("fuzzing light") against
// the analyses, plus hostile-input edge cases. The analyses must never
// crash, hang, or violate their structural invariants regardless of what
// code shape they meet.
#include <gtest/gtest.h>

#include <set>

#include "analysis/call_graph.h"
#include "core/corpus_runner.h"
#include "core/exec_identifier.h"
#include "core/reconstructor.h"
#include "core/taint.h"
#include "firmware/synthesizer.h"
#include "ir/builder.h"
#include "support/error.h"
#include "support/rng.h"

namespace firmres {
namespace {

/// Generate a random program: a few functions with random ops, calls into
/// random callees (library and local, existing or fresh), buffers written by
/// random string ops, occasional recv/send/delivery callsites and random
/// control flow.
ir::Program random_program(std::uint64_t seed) {
  support::Rng rng(seed);
  ir::Program prog("fuzz");
  ir::IRBuilder b(prog);

  static const std::vector<std::string> kCallees = {
      "nvram_get",   "config_get", "sprintf",    "strcat",  "strcpy",
      "cJSON_AddStringToObject",   "time",       "rand",    "md5_hex",
      "SSL_write",   "http_post",  "mqtt_publish", "recv",  "send",
      "strlen",      "memset",     "unknown_helper", "read_file",
  };

  const int num_functions = static_cast<int>(rng.uniform(1, 5));
  std::vector<std::string> local_names;
  for (int fi = 0; fi < num_functions; ++fi) {
    const std::string name = "fn_" + std::to_string(fi);
    ir::FunctionBuilder f = b.function(name);
    std::vector<ir::VarNode> pool;
    const int params = static_cast<int>(rng.uniform(0, 2));
    for (int p = 0; p < params; ++p)
      pool.push_back(f.param("p" + std::to_string(p)));
    pool.push_back(f.local("buf", 64));
    pool.push_back(f.cstr("literal-" + std::to_string(fi)));
    pool.push_back(f.cnum(static_cast<std::uint64_t>(rng.uniform(0, 1 << 20))));

    const int ops = static_cast<int>(rng.uniform(2, 20));
    for (int oi = 0; oi < ops; ++oi) {
      switch (rng.uniform(0, 4)) {
        case 0: {  // random call
          std::string callee = rng.pick(kCallees);
          if (!local_names.empty() && rng.chance(0.25))
            callee = rng.pick(local_names);
          const int argc = static_cast<int>(
              rng.uniform(0, std::min<std::int64_t>(4, static_cast<std::int64_t>(pool.size()))));
          std::vector<ir::VarNode> args;
          for (int a = 0; a < argc; ++a) args.push_back(rng.pick(pool));
          pool.push_back(f.call(callee, args));
          break;
        }
        case 1:  // arithmetic
          pool.push_back(f.binop(ir::OpCode::IntAdd, rng.pick(pool),
                                 rng.pick(pool)));
          break;
        case 2:  // copy
          f.copy(rng.pick(pool), rng.pick(pool));
          break;
        case 3: {  // branch diamond
          const ir::VarNode c = f.cmp_eq(rng.pick(pool), rng.pick(pool));
          const int tb = f.new_block();
          const int fb = f.new_block();
          f.cbranch(c, tb, fb);
          f.set_block(tb);
          f.branch(fb);
          f.set_block(fb);
          break;
        }
        default:  // load
          pool.push_back(f.load(rng.pick(pool)));
          break;
      }
    }
    if (rng.chance(0.5)) {
      f.ret(rng.pick(pool));
    } else {
      f.ret();
    }
    local_names.push_back(name);
  }
  return prog;
}

class RandomPrograms : public ::testing::TestWithParam<int> {};

TEST_P(RandomPrograms, AnalysesNeverCrashAndInvariantsHold) {
  const ir::Program prog =
      random_program(0xF422ULL * static_cast<std::uint64_t>(GetParam()));
  const analysis::CallGraph cg(prog);

  // Executable identification terminates and classifies.
  const core::ExecIdentification ident =
      core::ExecutableIdentifier().analyze(prog, cg);
  for (const core::HandlerCandidate& cand : ident.candidates) {
    EXPECT_GE(cand.score, 0.0);
    EXPECT_LE(cand.score, 1.0);
  }

  // MFT building respects budgets and leaf-id uniqueness.
  core::MftBuilder::Options opts;
  opts.max_nodes = 512;
  const core::MftBuilder builder(prog, cg, opts);
  const core::KeywordModel model;
  const core::Reconstructor reconstructor(model);
  for (const core::Mft& mft : builder.build_all()) {
    EXPECT_LE(mft.count().nodes, 600u);  // budget + small root slack
    std::set<int> ids;
    for (const core::MftNode* leaf : mft.leaves()) {
      EXPECT_TRUE(ids.insert(leaf->leaf_id).second);
      EXPECT_FALSE(mft.path_to(leaf).empty());
    }
    // Reconstruction of arbitrary MFTs never throws.
    const auto msg = reconstructor.reconstruct_one(mft, "fuzz");
    if (msg.has_value()) {
      for (const core::ReconstructedField& f : msg->fields)
        EXPECT_GE(f.leaf_id, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(1, 41));

TEST(Robustness, EmptyProgram) {
  ir::Program prog("empty");
  const analysis::CallGraph cg(prog);
  EXPECT_FALSE(core::ExecutableIdentifier().analyze(prog, cg).is_device_cloud);
  EXPECT_TRUE(core::MftBuilder(prog, cg).build_all().empty());
}

TEST(Robustness, DeliveryWithNoArguments) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("f");
  f.callv("SSL_write", {});
  f.ret();
  const analysis::CallGraph cg(prog);
  const auto mfts = core::MftBuilder(prog, cg).build_all();
  ASSERT_EQ(mfts.size(), 1u);
  EXPECT_TRUE(mfts[0].roots.empty());
  const core::KeywordModel model;
  const auto msg = core::Reconstructor(model).reconstruct_one(mfts[0], "p");
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->fields.empty());
}

TEST(Robustness, SelfReferentialAppendTerminates) {
  // strcat(buf, buf): dst == src; the append rule must not recurse forever.
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("f");
  const ir::VarNode buf = f.local("buf", 32);
  f.callv("strcpy", {buf, f.cstr("seed")});
  f.callv("strcat", {buf, buf});
  const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
  f.callv("SSL_write", {ssl, buf, f.cnum(8)});
  f.ret();
  const analysis::CallGraph cg(prog);
  const auto mfts = core::MftBuilder(prog, cg).build_all();
  ASSERT_EQ(mfts.size(), 1u);
  EXPECT_GE(mfts[0].count().leaves, 1u);
}

TEST(Robustness, CorpusRunnerIsolatesThrowingDevices) {
  // One image whose load/analyze throws must not abort the corpus run:
  // the failure is recorded per device and the other images complete.
  const core::KeywordModel model;
  const core::Pipeline pipeline(model);
  std::vector<core::CorpusTask> tasks;
  for (const int id : {1, 3, 5, 7}) {
    tasks.push_back(core::CorpusTask{
        id, [id, &pipeline] {
          if (id == 3)
            throw support::ParseError("device 3: corrupt image directory");
          return pipeline.analyze(fw::synthesize(fw::profile_by_id(id)));
        }});
  }
  for (const int jobs : {1, 2}) {
    const core::CorpusRunner runner(pipeline, {.jobs = jobs});
    const core::CorpusResult result = runner.run_tasks(tasks);
    ASSERT_EQ(result.analyses.size(), 3u) << "jobs=" << jobs;
    EXPECT_EQ(result.analyses[0].device_id, 1);
    EXPECT_EQ(result.analyses[1].device_id, 5);
    EXPECT_EQ(result.analyses[2].device_id, 7);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].device_id, 3);
    EXPECT_NE(result.failures[0].error.find("corrupt image"),
              std::string::npos);
  }
}

TEST(Robustness, MutuallyRecursiveLocalCallsTerminate) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  {
    ir::FunctionBuilder f = b.function("a");
    f.ret(f.local("x"));
  }
  {
    ir::FunctionBuilder f = b.function("c");
    const ir::VarNode v = f.call("a", {});
    const ir::VarNode ssl = f.call("SSL_new", {}, "ssl");
    f.callv("SSL_write", {ssl, v, f.cnum(4)});
    f.ret();
  }
  // Rewire a to call c (cycle a → c → a through returns).
  {
    ir::Function* a = prog.function("a");
    ir::FunctionBuilder fb(prog, *a);
    const ir::VarNode v = fb.call("c", {});
    fb.ret(v);
  }
  const analysis::CallGraph cg(prog);
  EXPECT_NO_THROW(core::MftBuilder(prog, cg).build_all());
}

}  // namespace
}  // namespace firmres
