#include "core/corpus_runner.h"

#include <algorithm>
#include <numeric>
#include <optional>

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
}  // namespace

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
  const auto run_one = [&](std::size_t i, int attempt) {
    FIRMRES_SPAN_DEVICE("corpus.device", "corpus", tasks[i].device_id);
    try {
      analyses[i] = tasks[i].run();
      failures[i].reset();
    } catch (const std::exception& e) {
      failures[i] = DeviceFailure{tasks[i].device_id, e.what(), attempt};
    } catch (...) {
      failures[i] = DeviceFailure{tasks[i].device_id, "unknown error",
                                  attempt};
    }
    if (options_.on_device_done) {
      if (analyses[i].has_value())
        options_.on_device_done(tasks[i].device_id, true,
                                analyses[i]->timings);
      else
        options_.on_device_done(tasks[i].device_id, false, PhaseTimings{});
    }
  };

  const int jobs = options_.jobs == 0
                       ? static_cast<int>(support::ThreadPool::default_parallelism())
                       : options_.jobs;
  if (jobs <= 1 || tasks.size() <= 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) run_one(i, 1);
  } else {
    support::ThreadPool pool(static_cast<std::size_t>(jobs));
    support::parallel_for(pool, tasks.size(),
                          [&](std::size_t i) { run_one(i, 1); });
  }

  // Failure isolation retry: one sequential second attempt per failed
  // device, after the fan-out drained (a transient resource-pressure
  // failure retried while the pool is saturated would likely recur).
  if (options_.retry_failed) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (!failures[i].has_value()) continue;
      g_device_retries.add();
      run_one(i, 2);
    }
  }

  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].device_id < tasks[b].device_id;
  });
  for (const std::size_t i : order) {
    if (analyses[i].has_value()) {
      g_devices_completed.add();
      const PhaseTimings& t = analyses[i]->timings;
      result.aggregate.pinpoint_s += t.pinpoint_s;
      result.aggregate.fields_s += t.fields_s;
      result.aggregate.semantics_s += t.semantics_s;
      result.aggregate.concat_s += t.concat_s;
      result.aggregate.check_s += t.check_s;
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

}  // namespace firmres::core
