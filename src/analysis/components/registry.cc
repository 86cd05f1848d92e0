#include "analysis/components/registry.h"

#include <atomic>
#include <filesystem>
#include <fstream>

#include "support/file.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/strings.h"

namespace firmres::analysis::components {
namespace {

namespace fs = std::filesystem;
using support::Json;
using support::JsonArray;
using support::JsonObject;
using valueflow::Value;

constexpr const char* kRegistryFormat = "firmres-registry";
constexpr int kRegistryVersion = 1;

std::string hex_u64(std::uint64_t v) {
  return support::format("0x%016llx", static_cast<unsigned long long>(v));
}

std::uint64_t parse_u64(const std::string& s) {
  if (s.size() < 3 || s[0] != '0' || s[1] != 'x')
    throw support::ParseError("registry payload: bad u64 literal: " + s);
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str() + 2, &end, 16);
  if (end == nullptr || *end != '\0')
    throw support::ParseError("registry payload: bad u64 literal: " + s);
  return v;
}

// Checked accessors: the payload hash already rejected corruption, so a
// shape mismatch means a foreign or hand-edited file — ParseError, turned
// into a load error at the boundary.
const Json& req(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr)
    throw support::ParseError(std::string("registry payload: missing key ") +
                              key);
  return *v;
}

std::string req_str(const Json& obj, const char* key) {
  const Json& v = req(obj, key);
  if (!v.is_string())
    throw support::ParseError(std::string("registry payload: ") + key +
                              " is not a string");
  return v.as_string();
}

std::uint64_t req_u64(const Json& obj, const char* key) {
  return parse_u64(req_str(obj, key));
}

int req_int(const Json& obj, const char* key) {
  const Json& v = req(obj, key);
  if (!v.is_number())
    throw support::ParseError(std::string("registry payload: ") + key +
                              " is not a number");
  return static_cast<int>(v.as_number());
}

bool req_bool(const Json& obj, const char* key) {
  const Json& v = req(obj, key);
  if (!v.is_bool())
    throw support::ParseError(std::string("registry payload: ") + key +
                              " is not a bool");
  return v.as_bool();
}

const JsonArray& req_array(const Json& obj, const char* key) {
  const Json& v = req(obj, key);
  if (!v.is_array())
    throw support::ParseError(std::string("registry payload: ") + key +
                              " is not an array");
  return v.as_array();
}

Json value_to_json(const Value& v) {
  JsonObject o;
  switch (v.kind()) {
    case Value::Kind::Top:
      o.emplace_back("kind", Json("top"));
      break;
    case Value::Kind::Bottom:
      o.emplace_back("kind", Json("bottom"));
      break;
    case Value::Kind::Const:
      o.emplace_back("kind", Json("const"));
      o.emplace_back("value", Json(hex_u64(v.const_value())));
      break;
    case Value::Kind::Str:
      o.emplace_back("kind", Json("str"));
      o.emplace_back("value", Json(v.str_value()));
      break;
  }
  return Json(std::move(o));
}

Value value_from_json(const Json& j) {
  const std::string kind = req_str(j, "kind");
  if (kind == "top") return Value::top();
  if (kind == "bottom") return Value::bottom();
  if (kind == "const") return Value::constant(req_u64(j, "value"));
  if (kind == "str") return Value::str(req_str(j, "value"));
  throw support::ParseError("registry payload: unknown value kind: " + kind);
}

Json function_to_json(const RegistryFunction& fn) {
  JsonArray env;
  for (const RegistryEnvEntry& e : fn.env) {
    env.push_back(Json(JsonObject{
        {"space", Json(static_cast<int>(e.space))},
        {"index", Json(static_cast<int>(e.index))},
        {"size", Json(static_cast<int>(e.size))},
        {"value", value_to_json(e.value)},
    }));
  }
  return Json(JsonObject{
      {"name", Json(fn.name)},
      {"fingerprint", Json(hex_u64(fn.fingerprint))},
      {"min_sweeps", Json(fn.min_sweeps)},
      {"branchless", Json(fn.branchless)},
      {"env", Json(std::move(env))},
  });
}

RegistryFunction function_from_json(const Json& j) {
  RegistryFunction fn;
  fn.name = req_str(j, "name");
  fn.fingerprint = req_u64(j, "fingerprint");
  fn.min_sweeps = req_int(j, "min_sweeps");
  fn.branchless = req_bool(j, "branchless");
  for (const Json& ej : req_array(j, "env")) {
    RegistryEnvEntry e;
    e.space = static_cast<std::uint8_t>(req_int(ej, "space"));
    e.index = static_cast<std::uint32_t>(req_int(ej, "index"));
    e.size = static_cast<std::uint32_t>(req_int(ej, "size"));
    e.value = value_from_json(req(ej, "value"));
    fn.env.push_back(std::move(e));
  }
  return fn;
}

Json library_to_json(const RegistryLibrary& lib) {
  JsonArray fns;
  for (const RegistryFunction& fn : lib.functions)
    fns.push_back(function_to_json(fn));
  return Json(JsonObject{
      {"name", Json(lib.name)},
      {"version", Json(lib.version)},
      {"risky", Json(lib.risky)},
      {"risk_note", Json(lib.risk_note)},
      {"functions", Json(std::move(fns))},
  });
}

RegistryLibrary library_from_json(const Json& j) {
  RegistryLibrary lib;
  lib.name = req_str(j, "name");
  lib.version = req_str(j, "version");
  lib.risky = req_bool(j, "risky");
  lib.risk_note = req_str(j, "risk_note");
  for (const Json& fj : req_array(j, "functions"))
    lib.functions.push_back(function_from_json(fj));
  return lib;
}

}  // namespace

void LibraryRegistry::add_library(RegistryLibrary library) {
  const std::size_t li = libraries_.size();

  // Intra-library duplicate fingerprints are ambiguous by construction
  // (two summaries claim the same shape): drop the fingerprint from the
  // index so it degrades to "no match", and record why.
  std::map<std::uint64_t, std::size_t> seen;
  std::vector<std::uint64_t> dropped;
  for (std::size_t fi = 0; fi < library.functions.size(); ++fi) {
    const std::uint64_t fp = library.functions[fi].fingerprint;
    if (seen.count(fp) > 0) {
      if (dropped.empty() || dropped.back() != fp) dropped.push_back(fp);
      continue;
    }
    seen.emplace(fp, fi);
  }
  for (const std::uint64_t fp : dropped) {
    seen.erase(fp);
    warnings_.push_back(support::format(
        "duplicate fingerprint %s within library %s %s: dropped from index",
        hex_u64(fp).c_str(), library.name.c_str(), library.version.c_str()));
  }

  for (std::size_t fi = 0; fi < library.functions.size(); ++fi) {
    const std::uint64_t fp = library.functions[fi].fingerprint;
    const auto it = seen.find(fp);
    if (it == seen.end() || it->second != fi) continue;
    index_[fp].push_back(Ref{.library = li, .function = fi});
  }
  libraries_.push_back(std::move(library));
}

const std::vector<LibraryRegistry::Ref>* LibraryRegistry::lookup(
    std::uint64_t fingerprint) const {
  const auto it = index_.find(fingerprint);
  return it == index_.end() ? nullptr : &it->second;
}

std::size_t LibraryRegistry::total_functions() const {
  std::size_t n = 0;
  for (const RegistryLibrary& lib : libraries_) n += lib.functions.size();
  return n;
}

std::string LibraryRegistry::save(const std::string& path) const {
  JsonArray libs;
  for (const RegistryLibrary& lib : libraries_)
    libs.push_back(library_to_json(lib));
  const Json payload(JsonObject{{"libraries", Json(std::move(libs))}});
  const Json doc(JsonObject{
      {"format", Json(kRegistryFormat)},
      {"version", Json(kRegistryVersion)},
      {"payload", payload},
      {"payload_hash", Json(hex_u64(support::fnv1a64(payload.dump(false))))},
  });
  const std::string text = doc.dump(true);

  static std::atomic<std::uint64_t> temp_seq{0};
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
  }
  const fs::path tmp =
      target.parent_path() /
      support::format(".%s.tmp-%llu", target.filename().string().c_str(),
                      static_cast<unsigned long long>(temp_seq++));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open())
      return "cannot open registry file for writing: " + tmp.string();
    out << text;
    if (!out.good()) return "short write to registry file: " + tmp.string();
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return "cannot rename registry file into place: " + path;
  }
  return {};
}

std::optional<LibraryRegistry> LibraryRegistry::load(const std::string& path,
                                                     std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "registry " + path + ": " + why;
    return std::nullopt;
  };

  const std::optional<std::string> text = support::read_file(path);
  if (!text.has_value()) return fail("cannot open file");

  const std::optional<Json> doc = Json::try_parse(*text);
  if (!doc.has_value()) return fail("malformed JSON (truncated?)");
  const Json* format = doc->find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != kRegistryFormat)
    return fail("not a firmres registry file");
  const Json* version = doc->find("version");
  if (version == nullptr || !version->is_number())
    return fail("missing version");
  if (static_cast<int>(version->as_number()) != kRegistryVersion)
    return fail(support::format(
        "version skew: file has %d, this build reads %d",
        static_cast<int>(version->as_number()), kRegistryVersion));
  const Json* payload = doc->find("payload");
  const Json* payload_hash = doc->find("payload_hash");
  if (payload == nullptr || payload_hash == nullptr ||
      !payload_hash->is_string())
    return fail("missing payload");
  if (payload_hash->as_string() !=
      hex_u64(support::fnv1a64(payload->dump(false))))
    return fail("payload hash mismatch (corrupt or truncated)");

  try {
    LibraryRegistry registry;
    for (const Json& lj : req_array(*payload, "libraries"))
      registry.add_library(library_from_json(lj));
    return registry;
  } catch (const support::ParseError& e) {
    return fail(e.what());
  }
}

}  // namespace firmres::analysis::components
