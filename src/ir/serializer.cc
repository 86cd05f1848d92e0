#include "ir/serializer.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/strings.h"

namespace firmres::ir {

namespace {

using support::Json;
using support::JsonArray;
using support::JsonObject;
using support::ParseError;

// --- encoding ----------------------------------------------------------------

Json varnode_to_json(const VarNode& v) {
  JsonArray arr;
  arr.emplace_back(std::string(space_name(v.space)));
  arr.emplace_back(static_cast<double>(v.offset));
  arr.emplace_back(static_cast<double>(v.size));
  return Json(std::move(arr));
}

Json op_to_json(const PcodeOp& op) {
  Json o{JsonObject{}};
  o.set("addr", static_cast<double>(op.address));
  o.set("op", std::string(opcode_name(op.opcode)));
  if (op.output.has_value()) o.set("out", varnode_to_json(*op.output));
  JsonArray inputs;
  for (const VarNode& in : op.inputs) inputs.push_back(varnode_to_json(in));
  o.set("in", Json(std::move(inputs)));
  if (!op.callee.empty()) o.set("callee", op.callee);
  return o;
}

Json function_to_json(const Function& fn) {
  Json f{JsonObject{}};
  f.set("name", fn.name());
  f.set("entry", static_cast<double>(fn.entry_address()));
  f.set("import", fn.is_import());

  JsonArray params;
  for (const VarNode& p : fn.params()) params.push_back(varnode_to_json(p));
  f.set("params", Json(std::move(params)));

  JsonArray symbols;
  for (const auto& [var, info] : fn.var_table()) {
    Json s{JsonObject{}};
    s.set("var", varnode_to_json(var));
    s.set("type", std::string(data_type_name(info.type)));
    s.set("name", info.name);
    s.set("id", static_cast<double>(info.node_id));
    symbols.push_back(std::move(s));
  }
  f.set("symbols", Json(std::move(symbols)));

  JsonArray blocks;
  for (const BasicBlock& b : fn.blocks()) {
    Json blk{JsonObject{}};
    blk.set("id", b.id);
    JsonArray succ;
    for (const int s : b.successors) succ.emplace_back(s);
    blk.set("succ", Json(std::move(succ)));
    JsonArray ops;
    for (const PcodeOp& op : b.ops) ops.push_back(op_to_json(op));
    blk.set("ops", Json(std::move(ops)));
    blocks.push_back(std::move(blk));
  }
  f.set("blocks", Json(std::move(blocks)));
  return f;
}

// --- decoding ----------------------------------------------------------------
//
// One pass over the document text straight into the Program's arenas
// (docs/IR.md "Decoding"): no DOM. Members may come in any order; a known
// member twice, a missing one, a value of the wrong type or an integer that
// does not fit its field raises ParseError naming the field and offset.

using support::JsonReader;
using Kind = JsonReader::Kind;

[[noreturn]] void malformed(const std::string& what) {
  throw ParseError("program document: " + what);
}

[[noreturn]] void malformed_at(std::size_t offset, std::string_view field,
                               const std::string& what) {
  malformed("'" + std::string(field) + "' at offset " +
            std::to_string(offset) + ": " + what);
}

void expect_kind(JsonReader& r, Kind kind, std::string_view field) {
  static constexpr const char* kNames[] = {"null",   "a bool",  "a number",
                                           "a string", "an array", "an object"};
  if (r.peek() != kind)
    malformed_at(r.offset(), field,
                 std::string("expected ") + kNames[static_cast<int>(kind)]);
}

std::string_view read_str(JsonReader& r, std::string_view field) {
  expect_kind(r, Kind::String, field);
  return r.read_string();
}

bool read_bool(JsonReader& r, std::string_view field) {
  expect_kind(r, Kind::Bool, field);
  return r.read_bool();
}

template <class T>
T read_int(JsonReader& r, std::string_view field) {
  expect_kind(r, Kind::Number, field);
  const std::size_t at = r.offset();
  const std::optional<T> v = support::checked_integer<T>(r.read_number());
  if (!v.has_value()) malformed_at(at, field, "number out of range");
  return *v;
}

/// Walks one object's members, matching keys against a fixed name list.
/// next() returns the index of the next known member with the reader at
/// its value, skipping unknown members, and -1 after the last one.
class Members {
 public:
  Members(JsonReader& r, std::initializer_list<std::string_view> names,
          std::string_view what)
      : r_(r), count_(static_cast<int>(names.size())), what_(what) {
    std::copy(names.begin(), names.end(), names_.begin());
    expect_kind(r, Kind::Object, what);
    at_ = r.offset();
    r.begin_object();
  }

  int next() {
    for (std::string_view key; r_.next_member(key);) {
      for (int i = 0; i < count_; ++i) {
        if (key != names_[i]) continue;
        if (seen(i)) malformed_at(r_.offset(), key, "duplicate field");
        seen_ |= 1u << i;
        return i;
      }
      r_.skip();
    }
    return -1;
  }

  bool seen(int i) const { return (seen_ >> i) & 1u; }

  void require(int i) const {
    if (!seen(i))
      malformed("missing field '" + std::string(names_[i]) +
                "' in the " + std::string(what_) + " at offset " +
                std::to_string(at_));
  }

 private:
  JsonReader& r_;
  std::array<std::string_view, 6> names_{};
  int count_;
  std::string_view what_;
  std::size_t at_ = 0;
  unsigned seen_ = 0;
};

Space space_from_name(std::string_view name) {
  for (const Space s : {Space::Const, Space::Register, Space::Unique,
                        Space::Stack, Space::Ram}) {
    if (name == space_name(s)) return s;
  }
  malformed("unknown address space '" + std::string(name) + "'");
}

OpCode opcode_from_name(std::string_view name) {
  // The opcode set is small; a linear scan over the enum keeps the decoder
  // free of a hand-maintained reverse table.
  for (int i = 0; i <= static_cast<int>(OpCode::Cast); ++i) {
    const auto code = static_cast<OpCode>(i);
    if (name == opcode_name(code)) return code;
  }
  malformed("unknown opcode '" + std::string(name) + "'");
}

DataType data_type_from_name(std::string_view name) {
  for (const DataType t :
       {DataType::Unknown, DataType::Function, DataType::Local,
        DataType::Param, DataType::Constant, DataType::DataPtr,
        DataType::Global}) {
    if (name == data_type_name(t)) return t;
  }
  malformed("unknown data type '" + std::string(name) + "'");
}

/// A fixed-length array such as a varnode: element() before each element,
/// done() after the last; any other length is an error naming `shape`.
class Tuple {
 public:
  Tuple(JsonReader& r, std::string_view field, const char* shape)
      : r_(r), field_(field), shape_(shape) {
    if (r.peek() != Kind::Array) bad();
    r.begin_array();
  }
  void element() {
    if (!r_.next_element()) bad();
  }
  void done() {
    if (r_.next_element()) bad();
  }

 private:
  [[noreturn]] void bad() const {
    malformed_at(r_.offset(), field_, std::string("must be ") + shape_);
  }
  JsonReader& r_;
  std::string_view field_;
  const char* shape_;
};

VarNode read_varnode(JsonReader& r, std::string_view field) {
  Tuple t(r, field, "[space, offset, size]");
  VarNode v;
  t.element();
  v.space = space_from_name(read_str(r, field));
  t.element();
  v.offset = read_int<std::uint64_t>(r, field);
  t.element();
  v.size = read_int<std::uint32_t>(r, field);
  t.done();
  return v;
}

class Decoder {
 public:
  explicit Decoder(std::string_view text) : r_(text) {}

  std::unique_ptr<Program> decode() {
    if (r_.peek() != Kind::Object) malformed("document is not an object");
    enum { kFormat, kName, kStrings, kFunctions };
    Members m(r_, {"format", "name", "strings", "functions"}, "document");
    // Sections met before "name" are read once the Program exists.
    std::vector<std::pair<int, JsonReader>> later;
    for (int i; (i = m.next()) >= 0;) {
      if (i == kFormat) {
        if (r_.peek() != Kind::String || r_.read_string() != "firmres-program")
          malformed("not a firmres-program document");
      } else if (i == kName) {
        program_ = std::make_unique<Program>(std::string(read_str(r_, "name")));
      } else if (program_ == nullptr) {
        later.emplace_back(i, r_);
        r_.skip();
      } else {
        section(r_, i == kStrings);
      }
    }
    r_.finish();
    if (!m.seen(kFormat)) malformed("not a firmres-program document");
    m.require(kName);
    for (auto& [i, at] : later) section(at, i == kStrings);
    m.require(kStrings);
    m.require(kFunctions);

    // A call to a function defined later in the document got kNoFunc from
    // set_call_target; every function shell exists now, so resolve again.
    for (Function* fn : program_->functions())
      for (BasicBlock& b : fn->blocks())
        for (PcodeOp& op : b.ops)
          if (op.callee_id != 0 && op.callee_fn == kNoFunc)
            op.callee_fn = program_->function_id(op.callee);
    return std::move(program_);
  }

 private:
  JsonReader r_;
  std::unique_ptr<Program> program_;
  std::string name_;             // a function's (until its shell exists) or
                                 // a symbol's name
  std::vector<VarNode> inputs_;  // one op's operands before pooling

  // The "strings" array, or the "functions" array.
  void section(JsonReader& r, bool strings) {
    expect_kind(r, Kind::Array, strings ? "strings" : "functions");
    r.begin_array();
    while (r.next_element()) {
      if (strings) string_entry(r);
      else function(r);
    }
  }

  void string_entry(JsonReader& r) {
    Tuple t(r, "strings", "[offset, text]");
    t.element();
    const auto offset = read_int<std::uint64_t>(r, "strings");
    t.element();
    program_->data().intern_at(offset, read_str(r, "strings"));
    t.done();
  }

  // Shells are created in document order as soon as name and import are
  // known, so entry addresses reproduce; body members met earlier wait.
  void function(JsonReader& r) {
    enum { kName, kEntry, kImport, kParams, kSymbols, kBlocks };
    Members m(r, {"name", "entry", "import", "params", "symbols", "blocks"},
              "function");
    Function* fn = nullptr;
    bool is_import = false;
    std::uint64_t entry = 0;
    std::vector<std::pair<int, JsonReader>> later;
    for (int i; (i = m.next()) >= 0;) {
      if (i == kName) {
        name_ = read_str(r, "name");
      } else if (i == kEntry) {
        entry = read_int<std::uint64_t>(r, "entry");
      } else if (i == kImport) {
        is_import = read_bool(r, "import");
      } else if (fn == nullptr) {
        later.emplace_back(i, r);
        r.skip();
      } else {
        body(r, i - kParams, *fn);
      }
      if (fn == nullptr && m.seen(kName) && m.seen(kImport))
        fn = &shell(is_import);
    }
    m.require(kName);
    m.require(kImport);
    m.require(kEntry);
    if (fn->entry_address() != entry)
      malformed(support::format(
          "entry address mismatch for %s: document 0x%llx, assigned 0x%llx "
          "(functions out of creation order?)",
          fn->name().c_str(), static_cast<unsigned long long>(entry),
          static_cast<unsigned long long>(fn->entry_address())));
    for (auto& [i, at] : later) body(at, i - kParams, *fn);
    m.require(kParams);
    m.require(kSymbols);
    m.require(kBlocks);
  }

  Function& shell(bool is_import) {
    if (program_->function(name_) != nullptr)
      malformed("duplicate function '" + name_ + "'");
    return program_->add_function(name_, is_import);
  }

  // which: 0 params, 1 symbols, 2 blocks.
  void body(JsonReader& r, int which, Function& fn) {
    static constexpr const char* kFields[] = {"params", "symbols", "blocks"};
    expect_kind(r, Kind::Array, kFields[which]);
    r.begin_array();
    while (r.next_element()) {
      if (which == 0) fn.add_param(read_varnode(r, "params"));
      else if (which == 1) symbol(r, fn);
      else block(r, fn);
    }
  }

  void symbol(JsonReader& r, Function& fn) {
    enum { kVar, kType, kName, kId };
    Members m(r, {"var", "type", "name", "id"}, "symbol");
    VarNode var;
    DataType type = DataType::Unknown;
    std::uint32_t id = 0;
    for (int i; (i = m.next()) >= 0;) {
      if (i == kVar) var = read_varnode(r, "var");
      else if (i == kType) type = data_type_from_name(read_str(r, "type"));
      else if (i == kName) name_ = read_str(r, "name");
      else id = read_int<std::uint32_t>(r, "id");
    }
    for (const int i : {kVar, kType, kName, kId}) m.require(i);
    fn.set_var_info(var, type, name_, id);
  }

  void block(JsonReader& r, Function& fn) {
    enum { kId, kSucc, kOps };
    Members m(r, {"id", "succ", "ops"}, "block");
    const int id = fn.add_block();
    for (int i; (i = m.next()) >= 0;) {
      if (i == kId) {
        const std::size_t at = r.offset();
        if (read_int<int>(r, "id") != id)
          malformed_at(at, "id", "block ids must be dense and in order");
        continue;
      }
      expect_kind(r, Kind::Array, i == kSucc ? "succ" : "ops");
      r.begin_array();
      BasicBlock& b = fn.block(id);
      while (r.next_element()) {
        if (i == kSucc) b.successors.push_back(read_int<int>(r, "succ"));
        else b.ops.push_back(op(r));
      }
    }
    for (const int i : {kId, kSucc, kOps}) m.require(i);
  }

  PcodeOp op(JsonReader& r) {
    enum { kAddr, kOp, kOut, kIn, kCallee };
    Members m(r, {"addr", "op", "out", "in", "callee"}, "op");
    PcodeOp op;
    for (int i; (i = m.next()) >= 0;) {
      switch (i) {
        case kAddr: op.address = read_int<std::uint64_t>(r, "addr"); break;
        case kOp: op.opcode = opcode_from_name(read_str(r, "op")); break;
        case kOut: op.output = read_varnode(r, "out"); break;
        case kIn:
          expect_kind(r, Kind::Array, "in");
          r.begin_array();
          inputs_.clear();
          while (r.next_element()) inputs_.push_back(read_varnode(r, "in"));
          op.inputs = program_->operand_list(inputs_.data(), inputs_.size());
          break;
        default: program_->set_call_target(op, read_str(r, "callee"));
      }
    }
    for (const int i : {kAddr, kOp, kIn}) m.require(i);
    return op;
  }
};

}  // namespace

support::Json program_to_json(const Program& program) {
  Json doc{JsonObject{}};
  doc.set("format", "firmres-program");
  doc.set("version", 1);
  doc.set("name", program.name());

  JsonArray strings;
  for (const auto& [offset, text] : program.data().strings()) {
    JsonArray entry;
    entry.emplace_back(static_cast<double>(offset));
    entry.emplace_back(text);
    strings.push_back(Json(std::move(entry)));
  }
  doc.set("strings", Json(std::move(strings)));

  JsonArray functions;
  for (const Function* fn : program.functions())
    functions.push_back(function_to_json(*fn));
  doc.set("functions", Json(std::move(functions)));
  return doc;
}

std::unique_ptr<Program> program_from_json(std::string_view text) {
  return Decoder(text).decode();
}

}  // namespace firmres::ir
