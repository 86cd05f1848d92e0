// CorpusRunner tests, centred on the determinism property the parallel
// engine guarantees: for any job count, the aggregated analyses are
// byte-identical after report serialization (timings omitted — the only
// run-to-run varying block).
#include "core/corpus_runner.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.h"
#include "firmware/serializer.h"
#include "firmware/synthesizer.h"
#include "support/observability/metrics.h"

namespace firmres::core {
namespace {

const KeywordModel kModel;

/// The multi-device corpus under test: eight binary devices plus one
/// script device (id 21) so the no-executable path is aggregated too.
std::vector<fw::FirmwareImage> test_corpus() {
  std::vector<fw::FirmwareImage> images;
  for (const int id : {1, 2, 3, 4, 5, 6, 7, 8, 21})
    images.push_back(fw::synthesize(fw::profile_by_id(id)));
  return images;
}

/// Canonical corpus fingerprint: every report, timings excluded, in
/// aggregation order.
std::string serialize_reports(const CorpusResult& result) {
  std::string out;
  for (const DeviceAnalysis& analysis : result.analyses) {
    out += analysis_to_json(analysis, /*include_timings=*/false).dump(true);
    out += '\n';
  }
  return out;
}

std::uint64_t counter_value(const support::metrics::Snapshot& snap,
                            std::string_view name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

TEST(CorpusRunner, ParallelRunsAreByteIdenticalToSequential) {
  const std::vector<fw::FirmwareImage> corpus = test_corpus();
  const Pipeline pipeline(kModel);

  const CorpusRunner sequential(pipeline, {.jobs = 1});
  const std::string baseline = serialize_reports(sequential.run(corpus));
  EXPECT_FALSE(baseline.empty());

  const int hw =
      static_cast<int>(support::ThreadPool::default_parallelism());
  for (const int jobs : {2, hw, hw + 3}) {
    const CorpusRunner parallel(pipeline, {.jobs = jobs});
    const CorpusResult result = parallel.run(corpus);
    EXPECT_TRUE(result.failures.empty());
    EXPECT_EQ(serialize_reports(result), baseline) << "jobs=" << jobs;
  }
}

TEST(CorpusRunner, AnalysesComeBackInDeviceIdOrder) {
  // Submit in descending id order; aggregation must re-impose ascending.
  std::vector<fw::FirmwareImage> images;
  for (const int id : {8, 5, 3, 1})
    images.push_back(fw::synthesize(fw::profile_by_id(id)));
  const Pipeline pipeline(kModel);
  const CorpusRunner runner(pipeline, {.jobs = 2});
  const CorpusResult result = runner.run(images);
  ASSERT_EQ(result.analyses.size(), 4u);
  for (std::size_t i = 1; i < result.analyses.size(); ++i)
    EXPECT_LT(result.analyses[i - 1].device_id,
              result.analyses[i].device_id);
}

TEST(CorpusRunner, AggregatedTimingSumsArePositive) {
  const std::vector<fw::FirmwareImage> corpus = test_corpus();
  const Pipeline pipeline(kModel);
  const CorpusRunner runner(pipeline, {.jobs = 2});
  const CorpusResult result = runner.run(corpus);

  EXPECT_GT(result.aggregate.pinpoint_s, 0.0);
  EXPECT_GT(result.aggregate.fields_s, 0.0);
  EXPECT_GT(result.aggregate.semantics_s, 0.0);
  EXPECT_GT(result.aggregate.concat_s, 0.0);
  EXPECT_GT(result.aggregate.check_s, 0.0);
  EXPECT_GT(result.aggregate.total_s(), 0.0);
  EXPECT_GT(result.wall_s, 0.0);
  EXPECT_GT(result.cpu_s, 0.0);
  EXPECT_GE(result.speedup(), 0.0);

  // The aggregate is the per-device sum, accumulated in device-id order.
  PhaseTimings manual;
  for (const DeviceAnalysis& a : result.analyses) {
    manual.pinpoint_s += a.timings.pinpoint_s;
    manual.fields_s += a.timings.fields_s;
    manual.semantics_s += a.timings.semantics_s;
    manual.concat_s += a.timings.concat_s;
    manual.check_s += a.timings.check_s;
  }
  EXPECT_DOUBLE_EQ(result.aggregate.total_s(), manual.total_s());
}

TEST(CorpusRunner, JobsZeroMeansHardwareConcurrency) {
  std::vector<fw::FirmwareImage> images;
  images.push_back(fw::synthesize(fw::profile_by_id(1)));
  images.push_back(fw::synthesize(fw::profile_by_id(2)));
  const Pipeline pipeline(kModel);
  const CorpusRunner runner(pipeline, {.jobs = 0});
  const CorpusResult result = runner.run(images);
  EXPECT_EQ(result.analyses.size(), 2u);
  EXPECT_TRUE(result.failures.empty());
}

TEST(CorpusRunner, EmptyCorpusYieldsEmptyResult) {
  const Pipeline pipeline(kModel);
  const CorpusRunner runner(pipeline, {.jobs = 4});
  const CorpusResult result = runner.run(std::vector<fw::FirmwareImage>{});
  EXPECT_TRUE(result.analyses.empty());
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.aggregate.total_s(), 0.0);
}

TEST(CorpusRunner, OneContextSolvePerProgramAndNoNestedPoolWork) {
  // Table I plus the memory-staging corpus, uncached and registry-less.
  std::vector<fw::FirmwareImage> corpus = fw::synthesize_corpus();
  for (fw::FirmwareImage& image : fw::synthesize_memory_corpus())
    corpus.push_back(std::move(image));
  const Pipeline pipeline(kModel);
  const CorpusRunner runner(pipeline, {.jobs = 4});

  const support::metrics::Snapshot before = support::metrics::snapshot();
  const CorpusResult result = runner.run(corpus);
  const support::metrics::Snapshot delta =
      support::metrics::snapshot().delta(before);
  ASSERT_TRUE(result.failures.empty());

  // Every executable is solved exactly once, in §IV-A; §IV-B reuses the
  // device-cloud programs' contexts instead of solving them again.
  const std::uint64_t programs =
      counter_value(delta, "identify.programs_analyzed");
  EXPECT_GT(programs, 0u);
  EXPECT_EQ(counter_value(delta, "valueflow.solves"), programs);
  EXPECT_EQ(counter_value(delta, "pointsto.solves"), programs);
  // A device task runs single-threaded: the fan-out's one task per device
  // is the only pool work, so no device runs on another device's stack.
  EXPECT_EQ(counter_value(delta, "pool.tasks_executed"), corpus.size());
}

TEST(CorpusRunner, CpuTimeReconcilesWithWallClock) {
  // A device's CPU time is its own thread's, and `jobs` device tasks run at
  // once: jobs − 1 pool workers plus the parallel_for caller.
  const std::vector<fw::FirmwareImage> corpus = fw::synthesize_corpus();
  const Pipeline pipeline(kModel);
  for (const int jobs : {2, 4}) {
    const CorpusResult result =
        CorpusRunner(pipeline, {.jobs = jobs}).run(corpus);
    EXPECT_GT(result.cpu_s, 0.0) << "jobs=" << jobs;
    EXPECT_LE(result.cpu_s, jobs * result.wall_s) << "jobs=" << jobs;
  }
}

class TempDir {
 public:
  TempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("firmres-corpus-runner-test-" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string save(const fw::FirmwareImage& image, const std::string& name) {
    fw::save_image(image, path_ / name);
    return (path_ / name).string();
  }
  std::string missing() const { return (path_ / "missing").string(); }
  /// A directory holding only a manifest.json with the given bytes.
  std::string manifest_only(const std::string& name,
                            const std::string& manifest) {
    std::filesystem::create_directories(path_ / name);
    std::ofstream(path_ / name / "manifest.json") << manifest;
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

TEST(CorpusRunner, DirectoryTasksLoadAnalyzeAndRender) {
  // Device 5 twice, a directory that does not exist, and ids out of order.
  TempDir base;
  const fw::FirmwareImage five = fw::synthesize(fw::profile_by_id(5));
  const std::vector<std::string> dirs = {
      base.save(five, "a"), base.save(fw::synthesize(fw::profile_by_id(2)), "b"),
      base.missing(), base.save(five, "c"),
      base.save(fw::synthesize(fw::profile_by_id(9)), "d")};
  const std::vector<int> ids = {5, 2, 0, 5, 9};
  const Pipeline pipeline(kModel);
  const CorpusRunner::Render render = [](const fw::FirmwareImage& image,
                                         const DeviceAnalysis& analysis) {
    return image.profile.vendor + "\n" +
           analysis_to_json(analysis, /*include_timings=*/false).dump(true, 1);
  };

  for (const int jobs : {1, 4}) {
    std::mutex mu;
    std::multiset<int> done;
    CorpusRunner::Options options{.jobs = jobs};
    options.on_device_done = [&](int id, bool ok, const PhaseTimings&) {
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_TRUE(ok);
      done.insert(id);
    };
    const support::metrics::Snapshot before = support::metrics::snapshot();
    const std::vector<DirectoryResult> results =
        CorpusRunner(pipeline, options).run_dirs(dirs, render);
    const support::metrics::Snapshot delta =
        support::metrics::snapshot().delta(before);

    ASSERT_EQ(results.size(), dirs.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < dirs.size(); ++i) {
      const DirectoryResult& r = results[i];
      EXPECT_EQ(r.device_id, ids[i]) << "jobs=" << jobs << " dir " << i;
      EXPECT_FALSE(r.analysis.has_value());  // a render drops the analysis
      if (i == 2) {
        ASSERT_TRUE(r.failure.has_value());
        EXPECT_TRUE(r.load_failed);
        EXPECT_EQ(r.failure->attempts, 2);
        EXPECT_TRUE(r.rendered.empty());
        continue;
      }
      EXPECT_FALSE(r.failure.has_value()) << "jobs=" << jobs << " dir " << i;
      const fw::FirmwareImage image = fw::load_image(dirs[i]);
      EXPECT_EQ(r.rendered, render(image, pipeline.analyze(image)))
          << "jobs=" << jobs << " dir " << i;
    }
    // Progress names manifest ids; the unloadable directory has none.
    EXPECT_EQ(done, (std::multiset<int>{2, 5, 5, 9})) << "jobs=" << jobs;
    EXPECT_EQ(counter_value(delta, "corpus.devices_completed"), 4u);
    EXPECT_EQ(counter_value(delta, "corpus.devices_failed"), 1u);
    EXPECT_EQ(counter_value(delta, "corpus.device_retries"), 1u);
    // One pool task per directory; the retry runs after the fan-out.
    EXPECT_EQ(counter_value(delta, "pool.tasks_executed"),
              jobs == 1 ? 0u : dirs.size());
  }

  // Without a render the analysis comes back instead.
  const std::vector<DirectoryResult> plain =
      CorpusRunner(pipeline, {.jobs = 2}).run_dirs(dirs);
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    EXPECT_EQ(plain[i].analysis.has_value(), i != 2);
    if (plain[i].analysis.has_value()) {
      EXPECT_EQ(plain[i].analysis->device_id, ids[i]);
    }
    EXPECT_TRUE(plain[i].rendered.empty());
  }
}

TEST(CorpusRunner, DeeplyNestedManifestIsALoadFailure) {
  // 300 000 nested arrays used to overflow the JSON parser's stack and
  // take the whole process down; now the directory fails alone.
  TempDir base;
  const std::string deep =
      base.manifest_only("deep", std::string(300000, '['));
  const std::string good =
      base.save(fw::synthesize(fw::profile_by_id(2)), "a");
  EXPECT_THROW(fw::load_image(deep), support::ParseError);

  const Pipeline pipeline(kModel);
  const std::vector<DirectoryResult> results =
      CorpusRunner(pipeline, {.jobs = 2}).run_dirs({deep, good});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].failure.has_value());
  EXPECT_TRUE(results[0].load_failed);
  EXPECT_FALSE(results[1].failure.has_value());
  EXPECT_EQ(results[1].device_id, 2);
}

/// A task that burns "CPU" into a DeviceAnalysis and then throws on the
/// first attempt, succeeding on the second. Regression guard for the retry
/// attribution bug: the failed attempt's timings must be discarded with the
/// attempt, never summed into the aggregate alongside the retry's.
CorpusTask flaky_task(int device_id, std::atomic<int>& attempts,
                      double attempt1_cpu_s, double attempt2_cpu_s) {
  return CorpusTask{
      device_id, [&attempts, device_id, attempt1_cpu_s,
                  attempt2_cpu_s] {
        const int attempt = attempts.fetch_add(1) + 1;
        DeviceAnalysis analysis;
        analysis.device_id = device_id;
        analysis.timings.pinpoint_s =
            attempt == 1 ? attempt1_cpu_s : attempt2_cpu_s;
        analysis.timings.cpu_total_s =
            attempt == 1 ? attempt1_cpu_s : attempt2_cpu_s;
        if (attempt == 1)
          throw std::runtime_error("transient failure");  // timings die here
        return analysis;
      }};
}

TEST(CorpusRunner, RetriedDeviceReportsExactlyOneAttempt) {
  const Pipeline pipeline(kModel);
  std::atomic<int> attempts{0};
  std::vector<CorpusTask> tasks;
  tasks.push_back(flaky_task(7, attempts, /*attempt1_cpu_s=*/100.0,
                             /*attempt2_cpu_s=*/2.0));
  tasks.push_back(CorpusTask{3, [] {
                               DeviceAnalysis a;
                               a.device_id = 3;
                               a.timings.pinpoint_s = 1.0;
                               a.timings.cpu_total_s = 1.0;
                               return a;
                             }});

  for (const int jobs : {1, 4}) {
    attempts = 0;
    const CorpusRunner runner(pipeline, {.jobs = jobs});
    const CorpusResult result = runner.run_tasks(tasks);
    EXPECT_EQ(attempts.load(), 2) << "jobs=" << jobs;
    EXPECT_TRUE(result.failures.empty()) << "jobs=" << jobs;
    ASSERT_EQ(result.analyses.size(), 2u) << "jobs=" << jobs;
    // Device 7 appears once, with the *surviving* attempt's numbers; the
    // thrown attempt's 100 s of burned CPU must not leak into any sum.
    EXPECT_EQ(result.analyses[0].device_id, 3);
    EXPECT_EQ(result.analyses[1].device_id, 7);
    EXPECT_DOUBLE_EQ(result.analyses[1].timings.cpu_total_s, 2.0);
    EXPECT_DOUBLE_EQ(result.aggregate.pinpoint_s, 3.0);
    EXPECT_DOUBLE_EQ(result.cpu_s, 3.0);
  }
}

TEST(CorpusRunner, TwiceFailedDeviceRecordsTwoAttempts) {
  const Pipeline pipeline(kModel);
  std::atomic<int> calls{0};
  std::vector<CorpusTask> tasks;
  tasks.push_back(CorpusTask{5, [&calls] {
                               calls.fetch_add(1);
                               throw std::runtime_error("deterministic bug");
                               return DeviceAnalysis{};  // unreachable
                             }});
  const CorpusRunner runner(pipeline, {.jobs = 1});
  const CorpusResult result = runner.run_tasks(tasks);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_TRUE(result.analyses.empty());
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].device_id, 5);
  EXPECT_EQ(result.failures[0].attempts, 2);
  EXPECT_EQ(result.failures[0].error, "deterministic bug");
  EXPECT_DOUBLE_EQ(result.aggregate.total_s(), 0.0);
  EXPECT_DOUBLE_EQ(result.cpu_s, 0.0);
}

TEST(CorpusRunner, RetryDisabledFailsAfterOneAttempt) {
  const Pipeline pipeline(kModel);
  std::atomic<int> calls{0};
  std::vector<CorpusTask> tasks;
  tasks.push_back(CorpusTask{9, [&calls] {
                               calls.fetch_add(1);
                               throw std::runtime_error("boom");
                               return DeviceAnalysis{};  // unreachable
                             }});
  CorpusRunner::Options options;
  options.jobs = 1;
  options.retry_failed = false;
  const CorpusResult result =
      CorpusRunner(pipeline, options).run_tasks(tasks);
  EXPECT_EQ(calls.load(), 1);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].attempts, 1);
}

}  // namespace
}  // namespace firmres::core
