// Points-to / memory def-use tests (docs/POINTSTO.md): unification across
// functions, ⊥-poisoning at escape points, stack/global/heap abstract
// locations, the def-use index itself, per-function cache signatures, and
// the determinism contract (byte-identical resolutions at any thread
// count). The corpus-level suites pin the reconstruction gate — memory-
// staging devices recover their staged fields with zero unresolved-load
// terminations — plus jobs-determinism and cache interaction of the pass.
#include "analysis/pointsto/pointsto.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/analysis_cache.h"
#include "core/corpus_runner.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "firmware/synthesizer.h"
#include "ir/builder.h"
#include "support/thread_pool.h"

namespace firmres {
namespace {

using analysis::pointsto::AbsLoc;
using analysis::pointsto::absloc_name;
using analysis::pointsto::LoadResolution;
using analysis::pointsto::PointsTo;
using ir::VarNode;

/// All ops of `opcode` in the program, function-creation / layout order.
std::vector<const ir::PcodeOp*> ops_of(const ir::Program& prog,
                                       ir::OpCode opcode) {
  std::vector<const ir::PcodeOp*> out;
  for (const ir::Function* fn : prog.local_functions())
    for (const ir::PcodeOp* op : fn->ops_in_order())
      if (op->opcode == opcode) out.push_back(op);
  return out;
}

TEST(PointsTo, GlobalStoreReachesLoadAcrossFunctions) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  {
    ir::FunctionBuilder w = b.function("writer");
    w.store(w.cnum(0xD000, 8), w.cstr("token"));
    w.ret();
  }
  ir::FunctionBuilder f = b.function("main");
  f.callv("writer", {});
  f.load(f.cnum(0xD000, 8));
  f.ret();

  const PointsTo pt(prog);
  const auto loads = ops_of(prog, ir::OpCode::Load);
  const auto stores = ops_of(prog, ir::OpCode::Store);
  ASSERT_EQ(loads.size(), 1u);
  ASSERT_EQ(stores.size(), 1u);

  const LoadResolution* res = pt.resolve_load(loads[0]);
  ASSERT_NE(res, nullptr);
  EXPECT_TRUE(res->resolved);
  ASSERT_EQ(res->stores.size(), 1u);
  EXPECT_EQ(res->stores[0].op, stores[0]);
  EXPECT_EQ(res->stores[0].fn->name(), "writer");
  ASSERT_EQ(res->locs.size(), 1u);
  EXPECT_EQ(res->locs[0].kind, AbsLoc::Kind::Global);
  EXPECT_EQ(res->locs[0].address, 0xD000u);
  EXPECT_TRUE(pt.store_reaches_load(stores[0]));

  const PointsTo::Stats& s = pt.stats();
  EXPECT_EQ(s.loads_total, 1u);
  EXPECT_EQ(s.loads_resolved, 1u);
  EXPECT_EQ(s.loads_with_stores, 1u);
  EXPECT_EQ(s.stores_total, 1u);
  EXPECT_EQ(s.stores_never_loaded, 0u);
}

TEST(PointsTo, HeapCellResolvesToItsAllocationSite) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode cell = f.call("malloc", {f.cnum(16)});
  f.store(cell, f.cnum(7));
  f.load(cell);
  f.ret();

  const PointsTo pt(prog);
  const auto loads = ops_of(prog, ir::OpCode::Load);
  ASSERT_EQ(loads.size(), 1u);
  const LoadResolution* res = pt.resolve_load(loads[0]);
  ASSERT_NE(res, nullptr);
  EXPECT_TRUE(res->resolved);
  EXPECT_EQ(res->stores.size(), 1u);
  ASSERT_EQ(res->locs.size(), 1u);
  EXPECT_EQ(res->locs[0].kind, AbsLoc::Kind::Heap);
  EXPECT_EQ(pt.stats().alloc_sites, 1u);
}

TEST(PointsTo, StackSlotIsItsOwnAddress) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode buf = f.local("buf", 64);
  f.store(buf, f.cnum(42));
  f.load(buf);
  f.ret();

  const PointsTo pt(prog);
  const auto loads = ops_of(prog, ir::OpCode::Load);
  ASSERT_EQ(loads.size(), 1u);
  const LoadResolution* res = pt.resolve_load(loads[0]);
  ASSERT_NE(res, nullptr);
  EXPECT_TRUE(res->resolved);
  ASSERT_EQ(res->locs.size(), 1u);
  EXPECT_EQ(res->locs[0].kind, AbsLoc::Kind::Stack);
  const std::string name = absloc_name(res->locs[0], prog);
  EXPECT_NE(name.find("stack:main"), std::string::npos) << name;
}

TEST(PointsTo, UnknownImportPoisonsItsArgumentsToBottom) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  f.store(f.cnum(0xE000, 8), f.cnum(1));
  f.callv("mystery_ext", {f.cnum(0xE000, 8)});
  f.load(f.cnum(0xE000, 8));
  f.ret();

  const PointsTo pt(prog);
  const auto loads = ops_of(prog, ir::OpCode::Load);
  const auto stores = ops_of(prog, ir::OpCode::Store);
  ASSERT_EQ(loads.size(), 1u);
  const LoadResolution* res = pt.resolve_load(loads[0]);
  ASSERT_NE(res, nullptr);
  EXPECT_FALSE(res->resolved) << "escaped cell must be ⊥, not resolved";
  EXPECT_TRUE(res->stores.empty());
  // A store into an escaped cell may be read by the unknown code: never
  // flag it dead.
  ASSERT_EQ(stores.size(), 1u);
  EXPECT_TRUE(pt.store_reaches_load(stores[0]));
  EXPECT_EQ(pt.stats().loads_resolved, 0u);
  EXPECT_EQ(pt.stats().stores_never_loaded, 0u);
}

TEST(PointsTo, ModelledSummaryWriteIsFlaggedNotChased) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  const VarNode buf = f.local("buf", 64);
  f.callv("sprintf", {buf, f.cstr("%s"), f.cstr("x")});
  f.load(buf);
  f.ret();

  const PointsTo pt(prog);
  const auto loads = ops_of(prog, ir::OpCode::Load);
  ASSERT_EQ(loads.size(), 1u);
  const LoadResolution* res = pt.resolve_load(loads[0]);
  ASSERT_NE(res, nullptr);
  EXPECT_TRUE(res->resolved);
  EXPECT_TRUE(res->summary_written)
      << "sprintf fills the buffer through a FlowEdge, not a Store";
  EXPECT_TRUE(res->stores.empty());
}

TEST(PointsTo, UncalledFunctionParametersArePoisoned) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("handler");
  const VarNode req = f.param("req");
  f.load(req);
  f.ret();

  const PointsTo pt(prog);
  const auto loads = ops_of(prog, ir::OpCode::Load);
  ASSERT_EQ(loads.size(), 1u);
  const LoadResolution* res = pt.resolve_load(loads[0]);
  ASSERT_NE(res, nullptr);
  EXPECT_FALSE(res->resolved)
      << "no visible callsite binds the parameter: its pointees are ⊥";
}

TEST(PointsTo, StoreNeverLoadedIsDetected) {
  ir::Program prog("p");
  ir::IRBuilder b(prog);
  ir::FunctionBuilder f = b.function("main");
  f.store(f.cnum(0xF000, 8), f.cnum(42));
  f.ret();

  const PointsTo pt(prog);
  const auto stores = ops_of(prog, ir::OpCode::Store);
  ASSERT_EQ(stores.size(), 1u);
  EXPECT_FALSE(pt.store_reaches_load(stores[0]));
  EXPECT_EQ(pt.stats().stores_never_loaded, 1u);
}

TEST(PointsTo, OversizedLocationClassCollapsesToBottom) {
  const auto build = [](ir::Program& prog) {
    ir::IRBuilder b(prog);
    ir::FunctionBuilder f = b.function("main");
    const VarNode t = f.temp(8);
    f.copy(t, f.cnum(0xA000, 8));
    f.copy(t, f.cnum(0xB000, 8));
    f.load(t);
    f.ret();
  };

  ir::Program wide("p");
  build(wide);
  const PointsTo relaxed(wide);
  const auto loads = ops_of(wide, ir::OpCode::Load);
  ASSERT_EQ(loads.size(), 1u);
  ASSERT_NE(relaxed.resolve_load(loads[0]), nullptr);
  EXPECT_TRUE(relaxed.resolve_load(loads[0])->resolved);
  EXPECT_EQ(relaxed.resolve_load(loads[0])->locs.size(), 2u);

  PointsTo::Options tight;
  tight.max_locs_per_class = 1;
  ir::Program capped("p");
  build(capped);
  const PointsTo strict(capped, nullptr, tight);
  const auto capped_loads = ops_of(capped, ir::OpCode::Load);
  ASSERT_EQ(capped_loads.size(), 1u);
  ASSERT_NE(strict.resolve_load(capped_loads[0]), nullptr);
  EXPECT_FALSE(strict.resolve_load(capped_loads[0])->resolved)
      << "a class above max_locs_per_class is noise, not signal";
}

TEST(PointsTo, FunctionSignaturesStableAndSensitive) {
  const auto build = [](ir::Program& prog, bool second_store) {
    ir::IRBuilder b(prog);
    {
      ir::FunctionBuilder w = b.function("writer");
      w.store(w.cnum(0xD000, 8), w.cstr("token"));
      if (second_store) w.store(w.cnum(0xD000, 8), w.cstr("other"));
      w.ret();
    }
    ir::FunctionBuilder f = b.function("main");
    f.callv("writer", {});
    f.load(f.cnum(0xD000, 8));
    f.ret();
  };

  ir::Program a("p"), b_prog("p"), c("p");
  build(a, false);
  build(b_prog, false);
  build(c, true);
  const PointsTo pa(a), pb(b_prog), pc(c);

  EXPECT_NE(pa.function_signature(a.function("main")), 0u);
  EXPECT_EQ(pa.function_signature(a.function("main")),
            pb.function_signature(b_prog.function("main")));
  EXPECT_EQ(pa.function_signature(a.function("writer")),
            pb.function_signature(b_prog.function("writer")));
  // A Store added in the writer changes what main's Load can observe, so
  // BOTH signatures move — the cache-dependency property.
  EXPECT_NE(pa.function_signature(a.function("writer")),
            pc.function_signature(c.function("writer")));
  EXPECT_NE(pa.function_signature(a.function("main")),
            pc.function_signature(c.function("main")));
  EXPECT_EQ(pa.function_signature(nullptr), 0u);
}

// ---------------------------------------------------------------------------
// Determinism: the solve is byte-identical at any thread count
// ---------------------------------------------------------------------------

TEST(PointsToDeterminism, ResolutionsIdenticalAcrossThreadCounts) {
  fw::DeviceProfile profile = fw::profile_by_id(10);
  profile.memory_indirection = true;
  const fw::FirmwareImage image = fw::synthesize(profile);
  const fw::FirmwareFile* exec =
      image.file(image.truth.device_cloud_executable);
  ASSERT_NE(exec, nullptr);
  const ir::Program& prog = *exec->program;

  const PointsTo seq(prog);
  for (const int jobs : {2, 8}) {
    support::ThreadPool pool(jobs);
    const PointsTo par(prog, &pool);

    const PointsTo::Stats& a = seq.stats();
    const PointsTo::Stats& b = par.stats();
    EXPECT_EQ(a.loads_total, b.loads_total) << "jobs=" << jobs;
    EXPECT_EQ(a.loads_resolved, b.loads_resolved) << "jobs=" << jobs;
    EXPECT_EQ(a.loads_with_stores, b.loads_with_stores) << "jobs=" << jobs;
    EXPECT_EQ(a.stores_total, b.stores_total) << "jobs=" << jobs;
    EXPECT_EQ(a.stores_never_loaded, b.stores_never_loaded)
        << "jobs=" << jobs;
    EXPECT_EQ(a.locations, b.locations) << "jobs=" << jobs;

    for (const ir::Function* fn : prog.local_functions()) {
      EXPECT_EQ(seq.function_signature(fn), par.function_signature(fn))
          << fn->name() << " jobs=" << jobs;
      for (const ir::PcodeOp* op : fn->ops_in_order()) {
        if (op->opcode != ir::OpCode::Load) continue;
        const LoadResolution* x = seq.resolve_load(op);
        const LoadResolution* y = par.resolve_load(op);
        if (x == nullptr || y == nullptr) {
          EXPECT_EQ(x, y);
          continue;
        }
        EXPECT_EQ(x->resolved, y->resolved);
        EXPECT_EQ(x->summary_written, y->summary_written);
        EXPECT_EQ(x->locs, y->locs);
        ASSERT_EQ(x->stores.size(), y->stores.size());
        for (std::size_t i = 0; i < x->stores.size(); ++i)
          EXPECT_EQ(x->stores[i].op->address, y->stores[i].op->address);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Corpus gates: reconstruction A/B, jobs-determinism, cache interaction
// ---------------------------------------------------------------------------

const core::KeywordModel kModel;

std::size_t count_terminations(const core::DeviceAnalysis& a,
                               std::string_view termination) {
  std::size_t n = 0;
  for (const auto& m : a.messages)
    for (const auto& field : m.fields)
      if (field.provenance.termination == termination) ++n;
  return n;
}

std::size_t count_fields(const core::DeviceAnalysis& a) {
  std::size_t n = 0;
  for (const auto& m : a.messages) n += m.fields.size();
  return n;
}

// The headline acceptance gate: with points-to on (the default), the
// memory-staging devices recover their staged fields through cross-function
// store hops — zero unresolved-load terminations — and no device ever
// reconstructs FEWER fields than the pipeline without the pass.
TEST(PointsToReconstruction, MemoryCorpusRecoversStagedFields) {
  core::Pipeline::Options without_pt;
  without_pt.pointsto = false;

  for (const fw::DeviceProfile& profile : fw::memory_corpus()) {
    const fw::FirmwareImage image = fw::synthesize(profile);
    const core::DeviceAnalysis with =
        core::Pipeline(kModel).analyze(image);
    const core::DeviceAnalysis without =
        core::Pipeline(kModel, without_pt).analyze(image);

    EXPECT_GE(count_fields(with), count_fields(without))
        << "device " << profile.id;
    EXPECT_EQ(count_terminations(with, "memory-unresolved"), 0u)
        << "device " << profile.id;

    if (!profile.memory_indirection) continue;

    // Staged fields flow through resolvable global/heap cells: the index
    // must resolve every load and surface at least one store-fed one.
    EXPECT_EQ(with.memory_terminations, 0) << "device " << profile.id;
    EXPECT_GT(with.memory_flow.loads_total, 0u) << "device " << profile.id;
    EXPECT_EQ(with.memory_flow.loads_resolved, with.memory_flow.loads_total)
        << "device " << profile.id;
    EXPECT_GT(with.memory_flow.loads_with_stores, 0u)
        << "device " << profile.id;
    EXPECT_EQ(count_terminations(with, "undefined-local"), 0u)
        << "device " << profile.id;
    // Without the pass the legacy address chase folds the staging cell's
    // ADDRESS as the field value (a bogus numeric-constant) instead of
    // following the store: strictly fewer real sources are recovered.
    const std::size_t real_with =
        count_terminations(with, "field-source") +
        count_terminations(with, "string-constant");
    const std::size_t real_without =
        count_terminations(without, "field-source") +
        count_terminations(without, "string-constant");
    EXPECT_GT(real_with, real_without) << "device " << profile.id;
  }
}

std::string serialize_reports(const core::CorpusResult& result) {
  std::string out;
  for (const core::DeviceAnalysis& analysis : result.analyses) {
    out += core::analysis_to_json(analysis, /*include_timings=*/false)
               .dump(true);
    out += '\n';
  }
  return out;
}

TEST(PointsToDeterminism, MemoryCorpusReportsByteIdenticalAcrossJobs) {
  const std::vector<fw::FirmwareImage> corpus =
      fw::synthesize_memory_corpus();
  const core::Pipeline pipeline(kModel);

  const core::CorpusRunner sequential(pipeline, {.jobs = 1});
  const std::string baseline = serialize_reports(sequential.run(corpus));
  EXPECT_NE(baseline.find("memory_flow"), std::string::npos);

  const core::CorpusRunner parallel(pipeline, {.jobs = 8});
  const core::CorpusResult result = parallel.run(corpus);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(serialize_reports(result), baseline);
}

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("firmres-pointsto-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

std::string analyze_one(const fw::FirmwareImage& image,
                        core::AnalysisCache* cache, bool pointsto) {
  core::Pipeline::Options options;
  options.cache = cache;
  options.pointsto = pointsto;
  const core::Pipeline pipeline(kModel, options);
  return core::analysis_to_json(pipeline.analyze(image),
                                /*include_timings=*/false)
      .dump(true);
}

TEST(PointsToCache, WarmRunRevalidatesThroughRecordedPtSigDeps) {
  fw::DeviceProfile profile = fw::profile_by_id(10);
  profile.memory_indirection = true;
  const fw::FirmwareImage image = fw::synthesize(profile);

  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  const std::string reference = analyze_one(image, nullptr, true);
  const std::string cold = analyze_one(image, &cache, true);
  EXPECT_EQ(cold, reference);
  const std::string warm = analyze_one(image, &cache, true);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(cache.stats().load_errors, 0u);

  // The per-function entries must carry the points-to signature of every
  // dep — the hash a Store added anywhere in a dep would change, which is
  // what lets the warm path trust the cached walk (docs/CACHING.md).
  const auto entries = cache.function_entries();
  ASSERT_FALSE(entries.empty());
  bool any_pt_sig = false;
  for (const auto& [key, entry] : entries) {
    (void)key;
    for (const core::CachedFunctionEntry::Dep& dep : entry.deps)
      if (dep.pt_sig != 0) any_pt_sig = true;
  }
  EXPECT_TRUE(any_pt_sig)
      << "no cached dependency recorded a points-to signature";
}

TEST(PointsToCache, PassToggleDoesNotCrossContaminateTheStore) {
  fw::DeviceProfile profile = fw::profile_by_id(10);
  profile.memory_indirection = true;
  const fw::FirmwareImage image = fw::synthesize(profile);

  TempDir dir;
  core::AnalysisCache cache({.dir = dir.str()});
  // Seed the store with the pass on, then run with it off against the SAME
  // directory: the ident and analysis salts separate the modes, so the
  // off-run must match its uncached reference instead of replaying
  // pointsto results — §IV-A verdicts included, since they are computed on
  // the points-to-aware call graph.
  (void)analyze_one(image, &cache, true);
  const std::string reference_off = analyze_one(image, nullptr, false);
  const std::uint64_t ident_hits_before = cache.stats().ident_hits;
  EXPECT_EQ(analyze_one(image, &cache, false), reference_off);
  EXPECT_EQ(cache.stats().ident_hits, ident_hits_before);
  // And the on-mode entries still serve byte-identically afterwards.
  const std::string reference_on = analyze_one(image, nullptr, true);
  EXPECT_EQ(analyze_one(image, &cache, true), reference_on);
}

}  // namespace
}  // namespace firmres
