#include "core/analysis_cache.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "support/error.h"
#include "support/file.h"
#include "support/hash.h"
#include "support/observability/events.h"
#include "support/observability/metrics.h"
#include "support/strings.h"

namespace firmres::core {

namespace {

namespace fs = std::filesystem;
namespace metrics = support::metrics;
namespace events = support::events;
using support::Json;
using support::JsonArray;
using support::JsonObject;

// On-disk entry format version. Any change to the payload schema or to the
// meaning of a key MUST bump this: version-skewed files load as misses.
constexpr int kCacheVersion = 1;
constexpr const char* kCacheFormat = "firmres-cache";

// Cache traffic counters (Work-kind: lookups are driven by what the corpus
// contains and what the store holds, not by scheduling).
metrics::Counter g_ident_hits("cache.ident_hits", metrics::Kind::Work);
metrics::Counter g_ident_misses("cache.ident_misses", metrics::Kind::Work);
metrics::Counter g_program_hits("cache.program_hits", metrics::Kind::Work);
metrics::Counter g_program_misses("cache.program_misses",
                                  metrics::Kind::Work);
metrics::Counter g_fn_hits("cache.fn_hits", metrics::Kind::Work);
metrics::Counter g_fn_misses("cache.fn_misses", metrics::Kind::Work);
metrics::Counter g_stores("cache.stores", metrics::Kind::Work);
metrics::Counter g_evictions("cache.evictions", metrics::Kind::Work);
metrics::Counter g_load_errors("cache.load_errors", metrics::Kind::Work);

std::string hex_u64(std::uint64_t v) {
  return support::format("0x%016llx", static_cast<unsigned long long>(v));
}

std::uint64_t parse_u64(const std::string& s) {
  if (s.size() < 3 || s[0] != '0' || s[1] != 'x')
    throw support::ParseError("cache payload: bad u64 literal: " + s);
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str() + 2, &end, 16);
  if (end == nullptr || *end != '\0')
    throw support::ParseError("cache payload: bad u64 literal: " + s);
  return v;
}

// Checked accessors over an authenticated payload (the payload_hash check
// already rejected corruption, so a shape mismatch here means a foreign or
// hand-edited file — ParseError, caught by the lookup path as a load error).
const Json& req(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr)
    throw support::ParseError(std::string("cache payload: missing key ") +
                              key);
  return *v;
}
std::string req_str(const Json& obj, const char* key) {
  return req(obj, key).as_string();
}
std::uint64_t req_u64(const Json& obj, const char* key) {
  return parse_u64(req(obj, key).as_string());
}
int req_int(const Json& obj, const char* key) {
  return static_cast<int>(req(obj, key).as_number());
}
double req_f64(const Json& obj, const char* key) {
  return req(obj, key).as_number();
}
bool req_bool(const Json& obj, const char* key) {
  return req(obj, key).as_bool();
}

// --- full-fidelity message (de)serialization ---------------------------------
// Distinct from report.cc's analysis_to_json on purpose: the report omits
// internal fields (leaf_id, slice_text, multi_field_formats) that downstream
// consumers of a rehydrated analysis still need. Enums travel as raw ints —
// the payload hash pins the producing version, so symbolic names buy
// nothing. Doubles survive exactly: Json::dump renders non-integers with
// %.17g, which round-trips every finite double bit pattern.

Json provenance_to_json(const FieldProvenance& p) {
  JsonArray visited(p.visited_functions.begin(), p.visited_functions.end());
  JsonArray path(p.construction_path.begin(), p.construction_path.end());
  JsonArray scores;
  for (const double s : p.label_scores) scores.emplace_back(s);
  return Json(JsonObject{
      {"visited_functions", Json(std::move(visited))},
      {"devirt_crossings", Json(p.devirt_crossings)},
      {"callsite_crossings", Json(p.callsite_crossings)},
      {"memory_crossings", Json(p.memory_crossings)},
      {"taint_depth", Json(p.taint_depth)},
      {"termination", Json(p.termination)},
      {"construction_path", Json(std::move(path))},
      {"format_piece", Json(p.format_piece)},
      {"split_delimiter", Json(p.split_delimiter)},
      {"split_score", Json(p.split_score)},
      {"split_pieces", Json(p.split_pieces)},
      {"model", Json(p.model)},
      {"label_scores", Json(std::move(scores))},
      {"margin", Json(p.margin)},
  });
}

FieldProvenance provenance_from_json(const Json& j) {
  FieldProvenance p;
  for (const Json& f : req(j, "visited_functions").as_array())
    p.visited_functions.push_back(f.as_string());
  p.devirt_crossings = req_int(j, "devirt_crossings");
  p.callsite_crossings = req_int(j, "callsite_crossings");
  p.memory_crossings = req_int(j, "memory_crossings");
  p.taint_depth = req_int(j, "taint_depth");
  p.termination = req_str(j, "termination");
  for (const Json& s : req(j, "construction_path").as_array())
    p.construction_path.push_back(s.as_string());
  p.format_piece = req_str(j, "format_piece");
  p.split_delimiter = req_str(j, "split_delimiter");
  p.split_score = req_f64(j, "split_score");
  p.split_pieces = req_int(j, "split_pieces");
  p.model = req_str(j, "model");
  for (const Json& s : req(j, "label_scores").as_array())
    p.label_scores.push_back(s.as_number());
  p.margin = req_f64(j, "margin");
  return p;
}

Json field_to_json(const ReconstructedField& f) {
  return Json(JsonObject{
      {"key", Json(f.key)},
      {"semantics", Json(static_cast<int>(f.semantics))},
      {"source", Json(static_cast<int>(f.source))},
      {"source_detail", Json(f.source_detail)},
      {"const_value", Json(f.const_value)},
      {"slice_text", Json(f.slice_text)},
      {"leaf_id", Json(f.leaf_id)},
      {"hardcoded", Json(f.hardcoded)},
      {"provenance", provenance_to_json(f.provenance)},
  });
}

ReconstructedField field_from_json(const Json& j) {
  ReconstructedField f;
  f.key = req_str(j, "key");
  f.semantics = static_cast<fw::Primitive>(req_int(j, "semantics"));
  f.source = static_cast<FieldValueSource>(req_int(j, "source"));
  f.source_detail = req_str(j, "source_detail");
  f.const_value = req_str(j, "const_value");
  f.slice_text = req_str(j, "slice_text");
  f.leaf_id = req_int(j, "leaf_id");
  f.hardcoded = req_bool(j, "hardcoded");
  f.provenance = provenance_from_json(req(j, "provenance"));
  return f;
}

Json message_to_json(const ReconstructedMessage& m) {
  JsonArray fields;
  for (const ReconstructedField& f : m.fields) fields.push_back(field_to_json(f));
  JsonArray formats(m.multi_field_formats.begin(),
                    m.multi_field_formats.end());
  return Json(JsonObject{
      {"executable", Json(m.executable)},
      {"delivery_address", Json(hex_u64(m.delivery_address))},
      {"delivery_callee", Json(m.delivery_callee)},
      {"endpoint_path", Json(m.endpoint_path)},
      {"host", Json(m.host)},
      {"format", Json(static_cast<int>(m.format))},
      {"fields", Json(std::move(fields))},
      {"multi_field_formats", Json(std::move(formats))},
      {"opaque_terminations", Json(m.opaque_terminations)},
      {"param_terminations", Json(m.param_terminations)},
      {"memory_terminations", Json(m.memory_terminations)},
  });
}

ReconstructedMessage message_from_json(const Json& j) {
  ReconstructedMessage m;
  m.executable = req_str(j, "executable");
  m.delivery_address = req_u64(j, "delivery_address");
  m.delivery_callee = req_str(j, "delivery_callee");
  m.endpoint_path = req_str(j, "endpoint_path");
  m.host = req_str(j, "host");
  m.format = static_cast<fw::WireFormat>(req_int(j, "format"));
  for (const Json& f : req(j, "fields").as_array())
    m.fields.push_back(field_from_json(f));
  for (const Json& s : req(j, "multi_field_formats").as_array())
    m.multi_field_formats.push_back(s.as_string());
  m.opaque_terminations = req_int(j, "opaque_terminations");
  m.param_terminations = req_int(j, "param_terminations");
  m.memory_terminations = req_int(j, "memory_terminations");
  return m;
}

Json decision_to_json(const MftDecision& d) {
  return Json(JsonObject{
      {"delivery_address", Json(hex_u64(d.delivery_address))},
      {"delivery_callee", Json(d.delivery_callee)},
      {"kept", Json(d.kept)},
      {"reason", Json(d.reason)},
  });
}

MftDecision decision_from_json(const Json& j) {
  MftDecision d;
  d.delivery_address = req_u64(j, "delivery_address");
  d.delivery_callee = req_str(j, "delivery_callee");
  d.kept = req_bool(j, "kept");
  d.reason = req_str(j, "reason");
  return d;
}

Json cached_message_to_json(const CachedMessage& m) {
  return Json(JsonObject{
      {"fn", Json(m.fn)},
      {"decision", decision_to_json(m.decision)},
      {"message",
       m.message.has_value() ? message_to_json(*m.message) : Json(nullptr)},
      {"mft_nodes", Json(static_cast<std::int64_t>(m.mft_nodes))},
      {"mft_leaves", Json(static_cast<std::int64_t>(m.mft_leaves))},
  });
}

CachedMessage cached_message_from_json(const Json& j) {
  CachedMessage m;
  m.fn = req_str(j, "fn");
  m.decision = decision_from_json(req(j, "decision"));
  const Json& msg = req(j, "message");
  if (!msg.is_null()) m.message = message_from_json(msg);
  m.mft_nodes = static_cast<std::uint64_t>(req(j, "mft_nodes").as_number());
  m.mft_leaves = static_cast<std::uint64_t>(req(j, "mft_leaves").as_number());
  return m;
}

Json program_to_json(const CachedProgramAnalysis& p) {
  JsonArray devirt;
  for (const CachedProgramAnalysis::DevirtSite& s : p.devirt_sites) {
    devirt.push_back(Json(JsonObject{
        {"caller", Json(s.caller)},
        {"target", Json(s.target)},
        {"address", Json(hex_u64(s.address))},
        {"round", Json(s.round)},
    }));
  }
  JsonArray messages;
  for (const CachedMessage& m : p.messages)
    messages.push_back(cached_message_to_json(m));
  return Json(JsonObject{
      {"indirect_total", Json(static_cast<std::int64_t>(p.indirect_total))},
      {"indirect_resolved",
       Json(static_cast<std::int64_t>(p.indirect_resolved))},
      {"pt_loads_total", Json(static_cast<std::int64_t>(p.pt_loads_total))},
      {"pt_loads_resolved",
       Json(static_cast<std::int64_t>(p.pt_loads_resolved))},
      {"pt_loads_with_stores",
       Json(static_cast<std::int64_t>(p.pt_loads_with_stores))},
      {"pt_stores_total", Json(static_cast<std::int64_t>(p.pt_stores_total))},
      {"pt_stores_never_loaded",
       Json(static_cast<std::int64_t>(p.pt_stores_never_loaded))},
      {"devirt_sites", Json(std::move(devirt))},
      {"messages", Json(std::move(messages))},
  });
}

CachedProgramAnalysis program_from_json(const Json& j) {
  CachedProgramAnalysis p;
  p.indirect_total =
      static_cast<std::uint64_t>(req(j, "indirect_total").as_number());
  p.indirect_resolved =
      static_cast<std::uint64_t>(req(j, "indirect_resolved").as_number());
  p.pt_loads_total =
      static_cast<std::uint64_t>(req(j, "pt_loads_total").as_number());
  p.pt_loads_resolved =
      static_cast<std::uint64_t>(req(j, "pt_loads_resolved").as_number());
  p.pt_loads_with_stores =
      static_cast<std::uint64_t>(req(j, "pt_loads_with_stores").as_number());
  p.pt_stores_total =
      static_cast<std::uint64_t>(req(j, "pt_stores_total").as_number());
  p.pt_stores_never_loaded = static_cast<std::uint64_t>(
      req(j, "pt_stores_never_loaded").as_number());
  for (const Json& s : req(j, "devirt_sites").as_array()) {
    p.devirt_sites.push_back(CachedProgramAnalysis::DevirtSite{
        req_str(s, "caller"), req_str(s, "target"), req_u64(s, "address"),
        req_int(s, "round")});
  }
  for (const Json& m : req(j, "messages").as_array())
    p.messages.push_back(cached_message_from_json(m));
  return p;
}

Json fn_entry_to_json(const CachedFunctionEntry& e) {
  JsonArray deps;
  for (const CachedFunctionEntry::Dep& d : e.deps) {
    deps.push_back(Json(JsonObject{
        {"fn", Json(d.fn)},
        {"ir_hash", Json(hex_u64(d.ir_hash))},
        {"vf_sig", Json(hex_u64(d.vf_sig))},
        {"callers_hash", Json(hex_u64(d.callers_hash))},
        {"pt_sig", Json(hex_u64(d.pt_sig))},
    }));
  }
  JsonArray messages;
  for (const CachedMessage& m : e.messages)
    messages.push_back(cached_message_to_json(m));
  return Json(JsonObject{
      {"fn", Json(e.fn)},
      {"deps", Json(std::move(deps))},
      {"messages", Json(std::move(messages))},
  });
}

CachedFunctionEntry fn_entry_from_json(const Json& j) {
  CachedFunctionEntry e;
  e.fn = req_str(j, "fn");
  for (const Json& d : req(j, "deps").as_array()) {
    e.deps.push_back(CachedFunctionEntry::Dep{
        req_str(d, "fn"), req_u64(d, "ir_hash"), req_u64(d, "vf_sig"),
        req_u64(d, "callers_hash"), req_u64(d, "pt_sig")});
  }
  for (const Json& m : req(j, "messages").as_array())
    e.messages.push_back(cached_message_from_json(m));
  return e;
}

std::string entry_filename(const char* kind, std::uint64_t key) {
  return support::format("%s-%016llx.json", kind,
                         static_cast<unsigned long long>(key));
}

/// The files the eviction cap counts: every `*.json` in the directory
/// (writer temps and foreign files with other suffixes are not entries).
bool is_entry_name(const std::string& name) {
  return name.size() >= 5 && name.compare(name.size() - 5, 5, ".json") == 0;
}

}  // namespace

AnalysisCache::AnalysisCache(Options options) : options_(std::move(options)) {
  FIRMRES_CHECK_MSG(!options_.dir.empty(),
                    "AnalysisCache requires a store directory");
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  FIRMRES_CHECK_MSG(!ec, "cannot create cache directory " + options_.dir);
  for (const fs::directory_entry& e :
       fs::directory_iterator(options_.dir, ec)) {
    if (ec) break;
    if (is_entry_name(e.path().filename().string())) ++entries_;
  }
}

// --- content hashing ---------------------------------------------------------

namespace {

void hash_varnode(support::Hasher& h, const ir::VarNode& v) {
  h.u8(static_cast<std::uint8_t>(v.space)).u64(v.offset).u64(v.size);
}

}  // namespace

std::uint64_t AnalysisCache::hash_function_ir(const ir::Function& fn) {
  support::Hasher h(0x666e69725f763031ULL);  // "fnir_v01"
  h.str(fn.name()).u64(fn.entry_address()).boolean(fn.is_import());
  h.u64(fn.params().size());
  for (const ir::VarNode& p : fn.params()) hash_varnode(h, p);
  h.u64(fn.blocks().size());
  for (const ir::BasicBlock& b : fn.blocks()) {
    h.u64(static_cast<std::uint64_t>(b.id));
    h.u64(b.successors.size());
    for (const int s : b.successors) h.u64(static_cast<std::uint64_t>(s));
    h.u64(b.ops.size());
    for (const ir::PcodeOp& op : b.ops) {
      h.u64(op.address).u8(static_cast<std::uint8_t>(op.opcode));
      h.boolean(op.output.has_value());
      if (op.output.has_value()) hash_varnode(h, *op.output);
      h.u64(op.inputs.size());
      for (const ir::VarNode& in : op.inputs) hash_varnode(h, in);
      h.str(op.callee);
    }
  }
  // Symbol information feeds the enriched slice rendering the classifier
  // consumes (§IV-C), so a rename alone must invalidate.
  h.u64(fn.var_table().size());
  for (const auto& [var, info] : fn.var_table()) {
    hash_varnode(h, var);
    h.u8(static_cast<std::uint8_t>(info.type)).str(info.name).u64(
        info.node_id);
  }
  return h.digest();
}

std::uint64_t AnalysisCache::hash_data_segment(const ir::Program& program) {
  support::Hasher h(0x646174615f763031ULL);  // "data_v01"
  h.u64(program.data().strings().size());
  for (const auto& [offset, text] : program.data().strings())
    h.u64(offset).str(text);
  return h.digest();
}

std::uint64_t AnalysisCache::hash_program_ir(const ir::Program& program) {
  support::Hasher h(0x70726f675f763031ULL);  // "prog_v01"
  h.str(program.name());
  h.u64(hash_data_segment(program));
  h.u64(program.functions().size());
  for (const ir::Function* fn : program.functions())
    h.u64(hash_function_ir(*fn));
  return h.digest();
}

// --- on-disk store -----------------------------------------------------------

std::optional<Json> AnalysisCache::load_payload(const char* kind,
                                                std::uint64_t key) {
  const fs::path path = fs::path(options_.dir) / entry_filename(kind, key);
  const std::optional<std::string> text = support::read_file(path.string());
  if (!text.has_value()) return std::nullopt;  // absent: a clean miss

  const auto fail = [&]() -> std::optional<Json> {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.load_errors;
    g_load_errors.add();
    return std::nullopt;
  };
  const std::optional<Json> doc = Json::try_parse(*text);
  if (!doc.has_value() || !doc->is_object()) return fail();
  const Json* format = doc->find("format");
  const Json* version = doc->find("version");
  const Json* entry_kind = doc->find("kind");
  const Json* entry_key = doc->find("key");
  const Json* payload = doc->find("payload");
  const Json* payload_hash = doc->find("payload_hash");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != kCacheFormat)
    return fail();
  if (version == nullptr || !version->is_number() ||
      static_cast<int>(version->as_number()) != kCacheVersion)
    return fail();
  if (entry_kind == nullptr || !entry_kind->is_string() ||
      entry_kind->as_string() != kind)
    return fail();
  if (entry_key == nullptr || !entry_key->is_string() ||
      entry_key->as_string() != hex_u64(key))
    return fail();
  if (payload == nullptr || payload_hash == nullptr ||
      !payload_hash->is_string())
    return fail();
  // Integrity gate: a flipped bit anywhere in the payload (or in the hash
  // itself) fails here, long before a deserializer could misread it.
  if (payload_hash->as_string() !=
      hex_u64(support::fnv1a64(payload->dump(false))))
    return fail();
  return *payload;
}

void AnalysisCache::store_payload(const char* kind, std::uint64_t key,
                                  const Json& payload) {
  // The envelope is written around the payload's one serialization. Its
  // bytes are what the Json object {format, version, kind, key, payload,
  // payload_hash} dumps to compact, so stores written either way load.
  const std::string body = payload.dump(false);
  const std::string text =
      std::string("{\"format\":\"") + kCacheFormat + "\",\"version\":" +
      std::to_string(kCacheVersion) + ",\"kind\":\"" + kind +
      "\",\"key\":\"" + hex_u64(key) + "\",\"payload\":" + body +
      ",\"payload_hash\":\"" + hex_u64(support::fnv1a64(body)) + "\"}";

  // Unique temp + rename: concurrent writers of the same key race to an
  // atomic replace, and readers never observe a partial file.
  static std::atomic<std::uint64_t> temp_seq{0};
  const fs::path dir(options_.dir);
  const fs::path tmp =
      dir / support::format(
                ".tmp-%s-%016llx-%llu", kind,
                static_cast<unsigned long long>(key),
                static_cast<unsigned long long>(
                    temp_seq.fetch_add(1, std::memory_order_relaxed)));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return;  // unwritable store: degrade to no-op
    out << text;
  }
  std::error_code ec;
  fs::rename(tmp, dir / entry_filename(kind, key), ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.stores;
  g_stores.add();
  // Below the cap a store costs two counters. An overwrite of an existing
  // key over-counts, so at worst a scan comes early and evicts nothing.
  if (++entries_ > options_.max_entries) evict_locked();
}

void AnalysisCache::evict_locked() {
  ++stats_.eviction_scans;
  std::error_code ec;
  std::vector<std::pair<fs::file_time_type, fs::path>> entries;
  for (const fs::directory_entry& e :
       fs::directory_iterator(options_.dir, ec)) {
    if (ec) return;
    if (!is_entry_name(e.path().filename().string())) continue;
    std::error_code tec;
    const fs::file_time_type mtime = e.last_write_time(tec);
    if (tec) continue;
    entries.emplace_back(mtime, e.path());
  }
  entries_ = entries.size();
  if (entries.size() <= options_.max_entries) return;
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second < b.second;
            });
  const std::size_t excess = entries.size() - options_.max_entries;
  for (std::size_t i = 0; i < excess; ++i) {
    std::error_code rec;
    if (fs::remove(entries[i].second, rec) && !rec) {
      --entries_;
      ++stats_.evictions;
      g_evictions.add();
    }
  }
}

void AnalysisCache::note_lookup(const char* kind, std::uint64_t key,
                                bool hit) {
  if (!options_.emit_events || !events::enabled()) return;
  events::Event e;
  e.category = "cache";
  e.text = std::string("cache ") + kind + (hit ? " hit" : " miss");
  e.attrs = {{"key", hex_u64(key)}};
  events::emit(std::move(e));
}

// --- tiers -------------------------------------------------------------------

std::optional<bool> AnalysisCache::lookup_ident(std::uint64_t key) {
  std::optional<bool> out;
  try {
    const std::optional<Json> payload = load_payload("ident", key);
    if (payload.has_value()) out = req_bool(*payload, "is_device_cloud");
  } catch (const std::exception&) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.load_errors;
    g_load_errors.add();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (out.has_value()) {
      ++stats_.ident_hits;
      g_ident_hits.add();
    } else {
      ++stats_.ident_misses;
      g_ident_misses.add();
    }
  }
  note_lookup("ident", key, out.has_value());
  return out;
}

void AnalysisCache::store_ident(std::uint64_t key, bool is_device_cloud) {
  store_payload("ident", key,
                Json(JsonObject{{"is_device_cloud", Json(is_device_cloud)}}));
}

std::optional<CachedProgramAnalysis> AnalysisCache::lookup_program(
    std::uint64_t key) {
  std::optional<CachedProgramAnalysis> out;
  try {
    const std::optional<Json> payload = load_payload("program", key);
    if (payload.has_value()) out = program_from_json(*payload);
  } catch (const std::exception&) {
    out.reset();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.load_errors;
    g_load_errors.add();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (out.has_value()) {
      ++stats_.program_hits;
      g_program_hits.add();
      // A program-tier hit reuses every delivery-bearing function's
      // artifacts, so credit them as fn hits: cache.fn_hits over
      // (fn_hits + fn_misses) stays the per-function hit rate no matter
      // which tier served.
      std::set<std::string> fns;
      for (const CachedMessage& m : out->messages) fns.insert(m.fn);
      stats_.fn_hits += fns.size();
      g_fn_hits.add(fns.size());
    } else {
      ++stats_.program_misses;
      g_program_misses.add();
    }
  }
  note_lookup("program", key, out.has_value());
  return out;
}

void AnalysisCache::store_program(std::uint64_t key,
                                  const CachedProgramAnalysis& value) {
  store_payload("program", key, program_to_json(value));
}

std::optional<CachedFunctionEntry> AnalysisCache::lookup_function(
    std::uint64_t key,
    const std::function<bool(const CachedFunctionEntry::Dep&)>& dep_ok) {
  std::optional<CachedFunctionEntry> out;
  try {
    const std::optional<Json> payload = load_payload("fn", key);
    if (payload.has_value()) out = fn_entry_from_json(*payload);
  } catch (const std::exception&) {
    out.reset();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.load_errors;
    g_load_errors.add();
  }
  if (out.has_value() && dep_ok) {
    for (const CachedFunctionEntry::Dep& dep : out->deps) {
      if (dep_ok(dep)) continue;
      out.reset();  // a recorded dependency drifted: the entry is stale
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (out.has_value()) {
      ++stats_.fn_hits;
      g_fn_hits.add();
    } else {
      ++stats_.fn_misses;
      g_fn_misses.add();
    }
  }
  note_lookup("fn", key, out.has_value());
  return out;
}

void AnalysisCache::store_function(std::uint64_t key,
                                   const CachedFunctionEntry& value) {
  store_payload("fn", key, fn_entry_to_json(value));
}

std::vector<std::pair<std::uint64_t, CachedFunctionEntry>>
AnalysisCache::function_entries() {
  std::vector<std::pair<std::uint64_t, CachedFunctionEntry>> out;
  std::error_code ec;
  for (const fs::directory_entry& e :
       fs::directory_iterator(options_.dir, ec)) {
    if (ec) break;
    const std::string name = e.path().filename().string();
    if (name.rfind("fn-", 0) != 0 || name.size() != 3 + 16 + 5) continue;
    std::uint64_t key = 0;
    try {
      key = parse_u64("0x" + name.substr(3, 16));
    } catch (const std::exception&) {
      continue;
    }
    try {
      const std::optional<Json> payload = load_payload("fn", key);
      if (payload.has_value())
        out.emplace_back(key, fn_entry_from_json(*payload));
    } catch (const std::exception&) {
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

AnalysisCache::Stats AnalysisCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace firmres::core
