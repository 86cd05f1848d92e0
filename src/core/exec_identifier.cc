#include "core/exec_identifier.h"

#include <algorithm>
#include <limits>
#include <set>

#include "analysis/forward_taint.h"
#include "analysis/predicates.h"
#include "ir/library.h"
#include "support/observability/metrics.h"
#include "support/observability/trace.h"

namespace firmres::core {

namespace {

using analysis::CallGraph;
using analysis::CallSite;

// §IV-A identification counters (Work-kind: functions of program content).
support::metrics::Counter g_programs_analyzed("identify.programs_analyzed",
                                              support::metrics::Kind::Work);
support::metrics::Counter g_handler_candidates("identify.handler_candidates",
                                               support::metrics::Kind::Work);
support::metrics::Counter g_device_cloud_verdicts(
    "identify.device_cloud_verdicts", support::metrics::Kind::Work);

std::vector<CallSite> sites_of_kind(const CallGraph& cg, ir::LibKind kind) {
  std::vector<CallSite> out;
  for (const std::string& name :
       ir::LibraryModel::instance().names_of_kind(kind)) {
    for (const CallSite& site : cg.callsites_of(name)) out.push_back(site);
  }
  std::sort(out.begin(), out.end(), [](const CallSite& a, const CallSite& b) {
    return a.op->address < b.op->address;
  });
  return out;
}

/// Candidate sequence for an anchor pair: functions on the call-graph path
/// plus their direct local callees (the parse/handle helpers).
std::vector<const ir::Function*> sequence_of(const CallGraph& cg,
                                             const ir::Function* a,
                                             const ir::Function* b) {
  std::vector<const ir::Function*> seq = cg.path(a, b);
  if (seq.empty()) seq = {a};
  std::set<const ir::Function*> seen(seq.begin(), seq.end());
  const std::size_t path_len = seq.size();
  for (std::size_t i = 0; i < path_len; ++i) {
    for (const ir::Function* callee : cg.callees(seq[i])) {
      if (seen.insert(callee).second) seq.push_back(callee);
    }
  }
  return seq;
}

/// Seeds for forward request taint at a fun_in callsite: the buffer
/// argument (per LibraryModel) and the call's return value.
std::vector<ir::VarNode> recv_seeds(const CallSite& site) {
  std::vector<ir::VarNode> seeds;
  const ir::LibFunction* lib =
      ir::LibraryModel::instance().find(site.op->callee);
  if (lib != nullptr && lib->recv_buf_arg >= 0 &&
      static_cast<std::size_t>(lib->recv_buf_arg) < site.op->inputs.size()) {
    seeds.push_back(site.op->inputs[static_cast<std::size_t>(lib->recv_buf_arg)]);
  }
  if (site.op->output.has_value()) seeds.push_back(*site.op->output);
  return seeds;
}

}  // namespace

ExecIdentification ExecutableIdentifier::analyze(
    const ir::Program& program, const analysis::CallGraph& cg) const {
  FIRMRES_SPAN("identify.program", "identify");
  g_programs_analyzed.add();
  ExecIdentification result;
  result.program = &program;

  const auto recvs = sites_of_kind(cg, ir::LibKind::RecvFn);
  const auto sends = sites_of_kind(cg, ir::LibKind::SendFn);
  if (recvs.empty() || sends.empty()) return result;

  for (const CallSite& recv : recvs) {
    // Pair with the closest fun_out callsite on the (undirected) call graph.
    const CallSite* best_send = nullptr;
    int best_dist = std::numeric_limits<int>::max();
    for (const CallSite& send : sends) {
      const int d = cg.distance(recv.caller, send.caller);
      if (d >= 0 && d < best_dist) {
        best_dist = d;
        best_send = &send;
      }
    }
    if (best_send == nullptr) continue;

    HandlerCandidate cand;
    cand.recv_site = recv;
    cand.send_site = *best_send;
    cand.sequence = sequence_of(cg, recv.caller, best_send->caller);

    if (options_.use_pf_scoring) {
      // Forward-taint the incoming request, then count predicate operands.
      analysis::ForwardTaint taint(program, cg, *recv.caller,
                                   recv_seeds(recv));
      for (const ir::Function* fn : cand.sequence) {
        if (options_.registry_branchless != nullptr &&
            options_.registry_branchless->count(fn) > 0) {
          // Certified branchless: no CBranch ⇒ no predicates ⇒ P_f is the
          // exact 0.0 the scan below would compute.
          cand.pf.push_back(0.0);
          continue;
        }
        const auto preds = analysis::predicates_of(*fn);
        std::size_t total = 0, from_request = 0;
        for (const analysis::Predicate& p : preds) {
          for (const ir::VarNode& operand : p.operands) {
            ++total;
            if (taint.is_tainted(fn, operand)) ++from_request;
          }
        }
        const double pf =
            total == 0 ? 0.0
                       : static_cast<double>(from_request) /
                             static_cast<double>(total);
        cand.pf.push_back(pf);
        if (pf > cand.score) {
          cand.score = pf;
          cand.parser = fn;
        }
      }
      cand.is_request_handler = cand.score >= options_.pf_threshold;
    } else {
      cand.score = 1.0;
      cand.is_request_handler = true;  // naive ablation mode
    }

    // Asynchronous check: the handler's fun_in caller must not be invoked
    // by direct control flow anywhere in the program.
    cand.asynchronous = !cg.has_direct_callers(recv.caller);

    result.candidates.push_back(std::move(cand));
  }

  for (const HandlerCandidate& cand : result.candidates) {
    const bool async_ok = !options_.require_async || cand.asynchronous;
    if (cand.is_request_handler && async_ok) {
      result.is_device_cloud = true;
      break;
    }
  }
  g_handler_candidates.add(result.candidates.size());
  if (result.is_device_cloud) g_device_cloud_verdicts.add();
  return result;
}

}  // namespace firmres::core
