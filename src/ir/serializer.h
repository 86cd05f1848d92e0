// Program (de)serialization.
//
// A Program round-trips through a JSON document — the on-disk form of a
// "lifted executable" in this substrate, playing the role Ghidra project
// databases play for the paper. The format is self-contained: string pool,
// functions (imports included, in creation order so entry addresses
// reproduce exactly), per-function symbol tables, blocks and ops.
#pragma once

#include <memory>
#include <string_view>

#include "ir/program.h"
#include "support/json.h"

namespace firmres::ir {

/// Serialize a program (functions, blocks, ops, symbols, string pool).
support::Json program_to_json(const Program& program);

/// Reconstruct a program from the text of its document, in one pass with no
/// DOM (docs/IR.md "Decoding"). Throws support::ParseError on malformed
/// input: bad JSON, a missing, duplicate or wrong-typed field, or an
/// integer that does not fit its field.
std::unique_ptr<Program> program_from_json(std::string_view text);

}  // namespace firmres::ir
