// Parallel corpus analysis engine.
//
// FIRMRES's evaluation (§V) runs the pipeline over a 23-device corpus;
// per-image analysis is embarrassingly parallel. CorpusRunner fans
// Pipeline::analyze out across firmware images on a work-stealing
// ThreadPool — each device task runs single-threaded on the thread that
// picked it up, and `jobs` tasks run at once — then aggregates results in
// ascending device-id order regardless of completion order. The aggregated
// output is therefore bit-identical for jobs=1 and jobs=N (per-device
// timings excepted; report serialization can omit them, see report.h).
//
// run_dirs makes the whole per-image job one task: load the directory,
// analyze it, render its report. Loading and rendering then overlap with
// other devices' analyses, and at most `jobs` images are resident at once.
//
// A device whose task throws (unloadable directory, corrupt image, analysis
// bug) is recorded as a DeviceFailure instead of aborting the run; the
// remaining images complete.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "support/thread_pool.h"

namespace firmres::core {

/// One unit of corpus work. `run` may throw.
struct CorpusTask {
  int device_id = 0;
  std::function<DeviceAnalysis()> run;
};

/// A device whose load or analysis threw instead of completing.
struct DeviceFailure {
  int device_id = 0;
  std::string error;
  /// How many times the task was attempted (2 when the retry also failed).
  int attempts = 1;
};

struct CorpusResult {
  /// Completed analyses, ascending device id (ties keep submission order).
  std::vector<DeviceAnalysis> analyses;
  /// Failed devices, same ordering.
  std::vector<DeviceFailure> failures;
  /// Per-phase sums over `analyses`, accumulated in device-id order (the
  /// floating-point addition order is fixed, so the sums are deterministic
  /// given deterministic inputs).
  PhaseTimings aggregate;
  /// End-to-end wall clock of the run.
  double wall_s = 0.0;
  /// Total CPU time the analyses consumed (sum of per-device cpu_total_s).
  double cpu_s = 0.0;
  /// Observed parallel speedup: CPU seconds delivered per wall second.
  double speedup() const { return wall_s > 0.0 ? cpu_s / wall_s : 0.0; }
};

/// One image directory's outcome from CorpusRunner::run_dirs.
struct DirectoryResult {
  /// Device id from the directory's manifest; 0 when it did not load.
  int device_id = 0;
  /// The analysis, on success when run_dirs was given no render.
  std::optional<DeviceAnalysis> analysis;
  /// The render's output, on success when run_dirs was given a render.
  std::string rendered;
  /// Set when every attempt threw.
  std::optional<DeviceFailure> failure;
  /// The failure was thrown while loading the directory.
  bool load_failed = false;
};

class CorpusRunner {
 public:
  struct Options {
    /// Device tasks that run at once: jobs − 1 pool workers plus the
    /// calling thread. 1 runs inline on the calling thread (the exact
    /// sequential path), 0 means ThreadPool::default_parallelism().
    int jobs = 1;
    /// Re-run a failed device task once, sequentially, after the fan-out
    /// completes — resource-pressure failures under parallelism get a
    /// second chance while deterministic failures fail again and surface
    /// as one DeviceFailure with attempts = 2. A failed attempt's timings
    /// and per-device metrics are discarded wholesale: each device
    /// contributes exactly one attempt (the surviving one) to
    /// CorpusResult::aggregate / cpu_s, never the sum of both.
    bool retry_failed = true;
    /// Completion callback (the CLI's --progress), invoked once per task
    /// attempt from the thread that ran it, right after the attempt
    /// finishes. `ok` is false for a throwing attempt (timings are then
    /// default-constructed). Must be thread-safe under jobs > 1; purely
    /// observational — results and aggregation are unaffected. run_dirs
    /// passes the manifest's device id, and skips an attempt whose
    /// directory did not load (no id is known).
    std::function<void(int device_id, bool ok, const PhaseTimings& timings)>
        on_device_done = nullptr;
  };

  /// `pipeline` must outlive the runner.
  explicit CorpusRunner(const Pipeline& pipeline)
      : CorpusRunner(pipeline, Options{}) {}
  CorpusRunner(const Pipeline& pipeline, Options options)
      : pipeline_(pipeline), options_(options) {}

  /// Analyze every image. Images are not copied; they must outlive the call.
  CorpusResult run(const std::vector<fw::FirmwareImage>& images) const;
  CorpusResult run(const std::vector<const fw::FirmwareImage*>& images) const;

  /// Generic driver: run arbitrary per-device tasks.
  CorpusResult run_tasks(const std::vector<CorpusTask>& tasks) const;

  /// Text a caller writes out for one analyzed image. Runs inside the
  /// image's task, so it must be thread-safe.
  using Render = std::function<std::string(const fw::FirmwareImage&,
                                           const DeviceAnalysis&)>;

  /// Load, analyze and — given a `render` — render each image directory as
  /// one task. The image and whatever the render builds are freed before
  /// the task returns; with a render the analysis is dropped too, so only
  /// the rendered text is kept. A directory that fails to load or analyze
  /// becomes a failure with run_tasks' retry. One result per directory, in
  /// `dirs` order.
  std::vector<DirectoryResult> run_dirs(const std::vector<std::string>& dirs,
                                        const Render& render = nullptr) const;

  const Options& options() const { return options_; }

 private:
  /// Runs attempt(i, 1) for every slot i < n, `jobs` at a time, then —
  /// with retry_failed — attempt(i, 2) sequentially for every slot whose
  /// first attempt returned false.
  void fan_out(std::size_t n,
               const std::function<bool(std::size_t, int)>& attempt) const;
  /// Invokes on_device_done; `timings` is null for a failed attempt.
  void device_done(int device_id, const PhaseTimings* timings) const;

  const Pipeline& pipeline_;
  Options options_;
};

}  // namespace firmres::core
