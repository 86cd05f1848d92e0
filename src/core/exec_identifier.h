// Pinpointing device-cloud executables (§IV-A).
//
// Step 1 — request-handler identification: pair fun_in (recv*) and fun_out
// (send*) anchor callsites by closest call-graph distance; the function
// call sequence between an anchor pair is a candidate handler; score it
// with the string-parsing factor
//     P_f = O_r / O,   score_S = max_{f in S} P_f
// where O_r counts predicate operands derived (by forward taint) from the
// incoming request and O counts all predicate operands.
//
// Step 2 — asynchronous-handler identification: a request handler whose
// fun_in caller has no direct invocation (it is event-registered) is
// asynchronous. An executable containing an asynchronous request handler
// is a device-cloud executable.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/call_graph.h"
#include "ir/program.h"

namespace firmres::core {

struct HandlerCandidate {
  analysis::CallSite recv_site;
  analysis::CallSite send_site;
  /// Functions of the candidate sequence (anchor path + one-hop callees).
  std::vector<const ir::Function*> sequence;
  /// score_S = max P_f over the sequence.
  double score = 0.0;
  /// The function attaining the max (the "main parsing function").
  const ir::Function* parser = nullptr;
  /// Per-function P_f values, parallel to `sequence`.
  std::vector<double> pf;
  /// True when the recv-containing function has no direct caller.
  bool asynchronous = false;
  /// score >= threshold: the pair's sequence is a request handler.
  bool is_request_handler = false;
};

struct ExecIdentification {
  const ir::Program* program = nullptr;
  std::vector<HandlerCandidate> candidates;
  /// Device-cloud verdict: at least one asynchronous request handler.
  bool is_device_cloud = false;
};

class ExecutableIdentifier {
 public:
  struct Options {
    /// Minimum string-parsing factor for a sequence to count as a request
    /// handler. The device-cloud dispatch/parse shape scores ~0.4-0.5;
    /// IPC bookkeeping loops score well below 0.2.
    double pf_threshold = 0.3;
    /// Disable the asynchronous filter (ablation bench).
    bool require_async = true;
    /// Disable P_f scoring and accept any recv/send pair (ablation bench:
    /// the naive "has recv+send" heuristic).
    bool use_pf_scoring = true;
    /// Registry-certified branchless functions: no CBranch means no
    /// predicate operands, so their P_f is pinned to the exact 0.0 the
    /// scan would compute, skipping the forward-taint membership counts.
    const std::set<const ir::Function*>* registry_branchless = nullptr;
  };

  ExecutableIdentifier() : options_() {}
  explicit ExecutableIdentifier(Options options) : options_(options) {}

  /// Identify over a call graph of `program`. The pipeline passes its
  /// value-flow devirtualized graph (docs/VALUEFLOW.md); a plain
  /// CallGraph(program) gives the direct-edge-only ablation.
  ExecIdentification analyze(const ir::Program& program,
                             const analysis::CallGraph& call_graph) const;

 private:
  Options options_;
};

}  // namespace firmres::core
