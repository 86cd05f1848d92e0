// PcodeOp: one P-Code operation.
//
// Basic form per the paper (§IV-C): <Address : Output OP Input1, Input2, …>.
// Direct calls carry the resolved callee symbol so call-graph construction
// does not need a relocation pass; indirect calls (CallInd) carry the
// function-pointer operand only — this asymmetry is what makes asynchronous
// (event-registered) handlers invisible to direct control flow, the property
// §IV-A's identification step keys on.
//
// Storage model (docs/IR.md): ops live in contiguous per-block vectors,
// operand lists are spans into the owning Program's OperandArena, and the
// callee symbol is interned in the Program's StringTable. Call targets are
// additionally pre-resolved to dense ids at construction time
// (Program::set_call_target): `callee_fn` indexes the program's function
// table and `lib_id` indexes LibraryModel::all(), so the analyses' inner
// loops never do a string-keyed map lookup per call op.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "ir/arena.h"
#include "ir/library.h"
#include "ir/opcodes.h"
#include "ir/varnode.h"

namespace firmres::ir {

struct PcodeOp {
  std::uint64_t address = 0;  ///< program-unique op address
  OpCode opcode = OpCode::Copy;
  std::optional<VarNode> output = std::nullopt;
  /// Arena-backed operand list (stable for the Program's lifetime).
  std::span<const VarNode> inputs = {};
  /// For OpCode::Call: resolved callee symbol name, interned in the owning
  /// Program's StringTable. Empty otherwise. Set via
  /// Program::set_call_target, which keeps the three resolved forms below
  /// in sync.
  std::string_view callee = {};
  /// Interned id of `callee` (0 when not a direct call).
  StrId callee_id = 0;
  /// Dense id of the in-program callee Function (import thunks included);
  /// kNoFunc when the program does not define the symbol.
  FuncId callee_fn = kNoFunc;
  /// 1-based LibraryModel index of the callee; 0 when the callee is not a
  /// catalogued library function.
  LibId lib_id = 0;

  bool is_call_to(std::string_view name) const {
    return opcode == OpCode::Call && callee == name;
  }

  /// The callee's LibraryModel summary, or nullptr. Replaces per-op
  /// LibraryModel::find(op.callee) string lookups on hot paths.
  const LibFunction* lib() const { return LibraryModel::by_id(lib_id); }
};

}  // namespace firmres::ir
