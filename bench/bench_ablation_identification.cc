// Ablation — device-cloud executable identification (§IV-A): the full
// P_f + asynchronous filter vs the naive "has recv+send" heuristic and a
// no-async-filter variant. Ground truth: the synthesizer knows which
// executable really talks to the cloud.
#include <benchmark/benchmark.h>

#include "analysis/valueflow/valueflow.h"
#include "bench_util.h"

namespace {

using namespace firmres;

struct IdentStats {
  int true_positives = 0;
  int false_positives = 0;
  int false_negatives = 0;
  double precision() const {
    const int denom = true_positives + false_positives;
    return denom == 0 ? 0.0 : static_cast<double>(true_positives) / denom;
  }
  double recall() const {
    const int denom = true_positives + false_negatives;
    return denom == 0 ? 0.0 : static_cast<double>(true_positives) / denom;
  }
};

/// `devirtualize` picks the value-flow devirtualized call graph the pipeline
/// uses; off, the graph has direct-call edges only.
IdentStats evaluate(const core::ExecutableIdentifier::Options& options,
                    bool devirtualize,
                    const std::vector<fw::FirmwareImage>& corpus) {
  const core::ExecutableIdentifier identifier(options);
  IdentStats stats;
  for (const fw::FirmwareImage& image : corpus) {
    for (const fw::FirmwareFile& file : image.files) {
      if (file.kind != fw::FirmwareFile::Kind::Executable) continue;
      const ir::Program& program = *file.program;
      const analysis::ValueFlow vf(program);
      const analysis::CallGraph cg = devirtualize
                                         ? analysis::CallGraph(program, vf)
                                         : analysis::CallGraph(program);
      const bool truth = file.path == image.truth.device_cloud_executable;
      const bool predicted = identifier.analyze(program, cg).is_device_cloud;
      if (predicted && truth) ++stats.true_positives;
      if (predicted && !truth) ++stats.false_positives;
      if (!predicted && truth) ++stats.false_negatives;
    }
  }
  return stats;
}

void print_ablation() {
  const auto corpus = fw::synthesize_corpus();

  core::ExecutableIdentifier::Options full;
  core::ExecutableIdentifier::Options no_async = full;
  no_async.require_async = false;
  core::ExecutableIdentifier::Options no_pf = full;
  no_pf.use_pf_scoring = false;
  core::ExecutableIdentifier::Options naive = full;
  naive.use_pf_scoring = false;
  naive.require_async = false;

  std::printf("ABLATION: DEVICE-CLOUD EXECUTABLE IDENTIFICATION (§IV-A)\n");
  bench::print_rule();
  std::printf("%-34s %-6s %-6s %-6s %-10s %-8s\n", "configuration", "TP",
              "FP", "FN", "precision", "recall");
  bench::print_rule();
  const struct {
    const char* name;
    core::ExecutableIdentifier::Options options;
    bool devirtualize;
  } configs[] = {
      {"full (P_f + async filter)", full, true},
      {"no async filter", no_async, true},
      {"no P_f scoring", no_pf, true},
      {"naive (any recv+send pair)", naive, true},
      {"no devirtualization", full, false},
  };
  for (const auto& [name, options, devirtualize] : configs) {
    const IdentStats s = evaluate(options, devirtualize, corpus);
    std::printf("%-34s %-6d %-6d %-6d %-10.3f %-8.3f\n", name,
                s.true_positives, s.false_positives, s.false_negatives,
                s.precision(), s.recall());
  }
  bench::print_rule();
  std::printf(
      "The async filter removes directly-invoked LAN servers; P_f scoring "
      "removes event-driven IPC daemons.\nOnly the combination isolates the "
      "device-cloud executables (paper §IV-A, Fig. 4).\nWithout "
      "devirtualization, handlers sending through function pointers lose "
      "their recv→send path (missed devices).\n\n");
}

void BM_IdentifyExecutable(benchmark::State& state) {
  const auto image = fw::synthesize(fw::profile_by_id(14));
  const ir::Program& program =
      *image.file(image.truth.device_cloud_executable)->program;
  const analysis::ValueFlow vf(program);
  const analysis::CallGraph cg(program, vf);
  const core::ExecutableIdentifier identifier;
  for (auto _ : state) {
    benchmark::DoNotOptimize(identifier.analyze(program, cg));
  }
}
BENCHMARK(BM_IdentifyExecutable);

}  // namespace

int main(int argc, char** argv) {
  firmres::support::set_log_level(firmres::support::LogLevel::Warn);
  print_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
