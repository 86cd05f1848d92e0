#include "core/corpus_runner.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <exception>

#include "firmware/serializer.h"
#include "support/observability/metrics.h"
#include "support/observability/trace.h"
#include "support/timing.h"

namespace firmres::core {

namespace {
// Corpus-level outcome counters (Work-kind: the retry schedule is a pure
// function of which tasks throw, so counts match at any jobs level).
support::metrics::Counter g_devices_completed("corpus.devices_completed",
                                              support::metrics::Kind::Work);
support::metrics::Counter g_devices_failed("corpus.devices_failed",
                                           support::metrics::Kind::Work);
support::metrics::Counter g_device_retries("corpus.device_retries",
                                           support::metrics::Kind::Work);

/// The message of the exception being handled.
std::string current_error() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}
}  // namespace

void CorpusRunner::fan_out(
    std::size_t n,
    const std::function<bool(std::size_t, int)>& attempt) const {
  // char, not bool: each task writes its own element concurrently.
  std::vector<char> ok(n);
  const int jobs = options_.jobs == 0
                       ? static_cast<int>(support::ThreadPool::default_parallelism())
                       : options_.jobs;
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) ok[i] = attempt(i, 1);
  } else {
    // parallel_for's caller runs queued tasks while it waits, so jobs − 1
    // workers make `jobs` concurrent device tasks.
    support::ThreadPool pool(static_cast<std::size_t>(jobs - 1));
    support::parallel_for(pool, n,
                          [&](std::size_t i) { ok[i] = attempt(i, 1); });
  }

  // Failure isolation retry: one sequential second attempt per failed
  // device, after the fan-out drained (a transient resource-pressure
  // failure retried while the pool is saturated would likely recur).
  if (!options_.retry_failed) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (ok[i]) continue;
    g_device_retries.add();
    attempt(i, 2);
  }
}

void CorpusRunner::device_done(int device_id,
                               const PhaseTimings* timings) const {
  if (options_.on_device_done)
    options_.on_device_done(device_id, timings != nullptr,
                            timings != nullptr ? *timings : PhaseTimings{});
}

CorpusResult CorpusRunner::run(
    const std::vector<fw::FirmwareImage>& images) const {
  std::vector<const fw::FirmwareImage*> pointers;
  pointers.reserve(images.size());
  for (const fw::FirmwareImage& image : images) pointers.push_back(&image);
  return run(pointers);
}

CorpusResult CorpusRunner::run(
    const std::vector<const fw::FirmwareImage*>& images) const {
  std::vector<CorpusTask> tasks;
  tasks.reserve(images.size());
  for (const fw::FirmwareImage* image : images) {
    tasks.push_back(CorpusTask{image->profile.id, [this, image] {
                                 return pipeline_.analyze(*image);
                               }});
  }
  return run_tasks(tasks);
}

CorpusResult CorpusRunner::run_tasks(
    const std::vector<CorpusTask>& tasks) const {
  FIRMRES_SPAN("corpus.run", "corpus");
  const support::WallTimer wall;
  CorpusResult result;

  // Completion order is whatever the scheduler produces; each task writes
  // its own slot and aggregation below re-imposes device-id order. A
  // throwing attempt assigns only the failure slot — its partially
  // accumulated DeviceAnalysis (timings included) is destroyed with the
  // stack, so a later retry cannot double-report the device.
  std::vector<std::optional<DeviceAnalysis>> analyses(tasks.size());
  std::vector<std::optional<DeviceFailure>> failures(tasks.size());
  fan_out(tasks.size(), [&](std::size_t i, int attempt) {
    const int device_id = tasks[i].device_id;
    FIRMRES_SPAN_DEVICE("corpus.device", "corpus", device_id);
    try {
      analyses[i] = tasks[i].run();
      failures[i].reset();
    } catch (...) {
      failures[i] = DeviceFailure{device_id, current_error(), attempt};
    }
    device_done(device_id,
                analyses[i].has_value() ? &analyses[i]->timings : nullptr);
    return analyses[i].has_value();
  });

  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].device_id < tasks[b].device_id;
  });
  for (const std::size_t i : order) {
    if (analyses[i].has_value()) {
      g_devices_completed.add();
      const PhaseTimings& t = analyses[i]->timings;
      for (const Phase& phase : kPhases)
        result.aggregate.*phase.slot += t.*phase.slot;
      result.aggregate.cpu_total_s += t.cpu_total_s;
      result.cpu_s += t.cpu_total_s;
      result.analyses.push_back(std::move(*analyses[i]));
    } else if (failures[i].has_value()) {
      g_devices_failed.add();
      result.failures.push_back(std::move(*failures[i]));
    }
  }
  result.wall_s = wall.elapsed_s();
  return result;
}

std::vector<DirectoryResult> CorpusRunner::run_dirs(
    const std::vector<std::string>& dirs, const Render& render) const {
  FIRMRES_SPAN("corpus.run", "corpus");
  std::vector<DirectoryResult> results(dirs.size());
  fan_out(dirs.size(), [&](std::size_t i, int attempt) {
    support::trace::Span span("corpus.device", "corpus");
    DirectoryResult& result = results[i];
    result = DirectoryResult{};
    bool loaded = false;
    PhaseTimings timings;
    try {
      const fw::FirmwareImage image = fw::load_image(dirs[i]);
      loaded = true;
      result.device_id = image.profile.id;
      span.set_device(result.device_id);
      DeviceAnalysis analysis = pipeline_.analyze(image);
      timings = analysis.timings;
      if (render) {
        FIRMRES_SPAN_DEVICE("report.emit", "corpus", result.device_id);
        result.rendered = render(image, analysis);
      } else {
        result.analysis = std::move(analysis);
      }
    } catch (...) {
      result.failure =
          DeviceFailure{result.device_id, current_error(), attempt};
      result.load_failed = !loaded;
    }
    if (loaded)
      device_done(result.device_id,
                  result.failure.has_value() ? nullptr : &timings);
    return !result.failure.has_value();
  });
  for (const DirectoryResult& result : results)
    (result.failure.has_value() ? g_devices_failed : g_devices_completed)
        .add();
  return results;
}

}  // namespace firmres::core
