#include "analysis/call_graph.h"

#include <algorithm>
#include <deque>
#include <set>

#include "analysis/valueflow/valueflow.h"
#include "ir/library.h"

namespace firmres::analysis {

CallGraph::CallGraph(const ir::Program& program) : program_(program) {
  build(nullptr);
}

CallGraph::CallGraph(const ir::Program& program, const ValueFlow& valueflow)
    : program_(program) {
  build(&valueflow);
}

void CallGraph::build(const ValueFlow* valueflow) {
  for (const ir::Function* fn : program_.functions()) by_entry_[fn->entry_address()] = fn;

  for (const ir::Function* fn : program_.local_functions()) {
    std::set<const ir::Function*> seen_callees;
    for (const ir::BasicBlock& b : fn->blocks()) {
      for (const ir::PcodeOp& op : b.ops) {
        if (op.opcode == ir::OpCode::CallInd) {
          // Surfaced whether or not the target resolves. Without value
          // flow, only a constant-space pointer operand resolves.
          const ir::Function* target = nullptr;
          if (valueflow != nullptr) {
            target = valueflow->resolved_target(&op);
          } else if (!op.inputs.empty() && op.inputs[0].is_constant()) {
            const auto it = by_entry_.find(op.inputs[0].offset);
            if (it != by_entry_.end() && !it->second->is_import())
              target = it->second;
          }
          indirect_callsites_.push_back(
              IndirectCallSite{.caller = fn, .op = &op, .target = target});
          if (target != nullptr) {
            ++indirect_resolved_;
            if (valueflow != nullptr) {
              // Devirtualized edge: undirected adjacency (distance/path)
              // and the resolved-callsite index only — direct-call views
              // (`callers`/`callees`) are left untouched so §IV-A's
              // asynchrony test still sees event handlers as uncalled.
              devirt_sites_by_callee_[target->name()].push_back(
                  CallSite{.caller = fn, .op = &op, .arg_offset = 1});
              undirected_[fn].push_back(target);
              undirected_[target].push_back(fn);
            }
          }
          continue;
        }
        if (op.opcode != ir::OpCode::Call) continue;
        const CallSite site{.caller = fn, .op = &op, .arg_offset = 0};
        sites_by_callee_[std::string(op.callee)].push_back(site);
        sites_by_caller_[fn].push_back(site);

        const ir::Function* target = program_.function_by_id(op.callee_fn);
        if (target != nullptr && !target->is_import() &&
            seen_callees.insert(target).second) {
          callees_[fn].push_back(target);
          callers_[target].push_back(fn);
        }

        // Event-callback registration: a const function-pointer argument to
        // an EventReg library call marks the target as implicitly invoked.
        const ir::LibFunction* libfn = op.lib();
        if (libfn != nullptr && libfn->kind == ir::LibKind::EventReg &&
            libfn->callback_arg >= 0 &&
            static_cast<std::size_t>(libfn->callback_arg) < op.inputs.size()) {
          const ir::VarNode& cb = op.inputs[static_cast<std::size_t>(libfn->callback_arg)];
          if (cb.is_constant()) {
            const auto it = by_entry_.find(cb.offset);
            if (it != by_entry_.end()) event_registered_[it->second] = true;
          }
        }
      }
    }
  }

  // Callbacks whose registration operand only folds under value flow.
  if (valueflow != nullptr)
    for (const ir::Function* cb : valueflow->folded_event_callbacks())
      event_registered_[cb] = true;

  // Undirected adjacency for distance/path queries.
  for (const auto& [fn, outs] : callees_) {
    for (const ir::Function* out : outs) {
      undirected_[fn].push_back(out);
      undirected_[out].push_back(fn);
    }
  }
  for (auto& [fn, adj] : undirected_) {
    (void)fn;
    std::sort(adj.begin(), adj.end(),
              [](const ir::Function* a, const ir::Function* b) {
                return a->entry_address() < b->entry_address();
              });
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }

  // Merge direct + devirtualized callsites once; resolved_callsites_of is
  // queried per parameter leaf on the taint hot path.
  resolved_sites_by_callee_ = sites_by_callee_;
  for (const auto& [name, sites] : devirt_sites_by_callee_) {
    auto& merged = resolved_sites_by_callee_[name];
    merged.insert(merged.end(), sites.begin(), sites.end());
  }
}

const std::vector<const ir::Function*>& CallGraph::callers(
    const ir::Function* fn) const {
  const auto it = callers_.find(fn);
  return it == callers_.end() ? empty_ : it->second;
}

const std::vector<const ir::Function*>& CallGraph::callees(
    const ir::Function* fn) const {
  const auto it = callees_.find(fn);
  return it == callees_.end() ? empty_ : it->second;
}

const std::vector<CallSite>& CallGraph::callsites_of(
    std::string_view callee_name) const {
  const auto it = sites_by_callee_.find(callee_name);
  return it == sites_by_callee_.end() ? empty_sites_ : it->second;
}

const ir::Function* CallGraph::indirect_target(const ir::PcodeOp* op) const {
  for (const IndirectCallSite& site : indirect_callsites_)
    if (site.op == op) return site.target;
  return nullptr;
}

const std::vector<CallSite>& CallGraph::resolved_callsites_of(
    std::string_view callee_name) const {
  const auto it = resolved_sites_by_callee_.find(callee_name);
  return it == resolved_sites_by_callee_.end() ? empty_sites_ : it->second;
}

const std::vector<CallSite>& CallGraph::callsites_in(
    const ir::Function* fn) const {
  const auto it = sites_by_caller_.find(fn);
  return it == sites_by_caller_.end() ? empty_sites_ : it->second;
}

std::vector<const ir::Function*> CallGraph::path(const ir::Function* a,
                                                 const ir::Function* b) const {
  if (a == b) return {a};
  std::map<const ir::Function*, const ir::Function*> parent;
  std::deque<const ir::Function*> queue{a};
  parent[a] = nullptr;
  while (!queue.empty()) {
    const ir::Function* cur = queue.front();
    queue.pop_front();
    const auto it = undirected_.find(cur);
    if (it == undirected_.end()) continue;
    for (const ir::Function* next : it->second) {
      if (parent.contains(next)) continue;
      parent[next] = cur;
      if (next == b) {
        std::vector<const ir::Function*> out;
        for (const ir::Function* f = b; f != nullptr; f = parent[f])
          out.push_back(f);
        std::reverse(out.begin(), out.end());
        return out;
      }
      queue.push_back(next);
    }
  }
  return {};
}

int CallGraph::distance(const ir::Function* a, const ir::Function* b) const {
  const auto p = path(a, b);
  return p.empty() ? -1 : static_cast<int>(p.size()) - 1;
}

bool CallGraph::has_direct_callers(const ir::Function* fn) const {
  return !callers(fn).empty();
}

bool CallGraph::is_event_registered(const ir::Function* fn) const {
  const auto it = event_registered_.find(fn);
  return it != event_registered_.end() && it->second;
}

const ir::Function* CallGraph::function_at(std::uint64_t entry_address) const {
  const auto it = by_entry_.find(entry_address);
  return it == by_entry_.end() ? nullptr : it->second;
}

}  // namespace firmres::analysis
