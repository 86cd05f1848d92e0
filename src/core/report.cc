#include "core/report.h"

#include "support/strings.h"

namespace firmres::core {

namespace {
using support::Json;
using support::JsonArray;
using support::JsonObject;
}  // namespace

support::Json message_to_json(const ReconstructedMessage& message) {
  Json m{JsonObject{}};
  m.set("executable", message.executable);
  m.set("delivery_address",
        support::format("0x%llx",
                        static_cast<unsigned long long>(
                            message.delivery_address)));
  m.set("delivery_callee", message.delivery_callee);
  m.set("endpoint_path", message.endpoint_path);
  m.set("host", message.host);
  m.set("format", std::string(fw::wire_format_name(message.format)));
  JsonArray fields;
  for (const ReconstructedField& f : message.fields) {
    Json fo{JsonObject{}};
    fo.set("key", f.key);
    fo.set("semantics", std::string(fw::primitive_name(f.semantics)));
    fo.set("source", std::string(field_value_source_name(f.source)));
    fo.set("source_detail", f.source_detail);
    if (!f.const_value.empty()) fo.set("const_value", f.const_value);
    fo.set("hardcoded", f.hardcoded);

    // Full derivation record (docs/PROVENANCE.md) — everything `firmres
    // explain` needs to render callsite → taint path → source → label from
    // the report alone. Work-derived only, so byte-identical at any --jobs.
    const FieldProvenance& p = f.provenance;
    Json prov{JsonObject{}};
    prov.set("termination", p.termination);
    JsonArray visited;
    for (const std::string& fn : p.visited_functions)
      visited.emplace_back(fn);
    prov.set("visited_functions", Json(std::move(visited)));
    prov.set("devirt_crossings", p.devirt_crossings);
    prov.set("callsite_crossings", p.callsite_crossings);
    // Emitted only when a Load→Store hop was taken, so reports over
    // memory-free firmware stay byte-identical to pre-points-to ones.
    if (p.memory_crossings > 0)
      prov.set("memory_crossings", p.memory_crossings);
    prov.set("taint_depth", p.taint_depth);
    JsonArray steps;
    for (const std::string& step : p.construction_path)
      steps.emplace_back(step);
    prov.set("construction_path", Json(std::move(steps)));
    if (p.split_pieces > 0) {
      Json split{JsonObject{}};
      split.set("format_piece", p.format_piece);
      split.set("delimiter", p.split_delimiter);
      split.set("score", p.split_score);
      split.set("pieces", p.split_pieces);
      prov.set("split", std::move(split));
    }
    prov.set("model", p.model);
    Json scores{JsonObject{}};
    for (std::size_t c = 0; c < p.label_scores.size(); ++c)
      scores.set(std::string(fw::primitive_name(
                     static_cast<fw::Primitive>(c))),
                 p.label_scores[c]);
    prov.set("label_scores", std::move(scores));
    prov.set("margin", p.margin);
    if (!p.registry_components.empty()) {
      JsonArray components;
      for (const std::string& label : p.registry_components)
        components.emplace_back(label);
      prov.set("registry_components", Json(std::move(components)));
    }
    fo.set("provenance", std::move(prov));

    fields.push_back(std::move(fo));
  }
  m.set("fields", Json(std::move(fields)));
  m.set("opaque_terminations", message.opaque_terminations);
  m.set("param_terminations", message.param_terminations);
  if (message.memory_terminations > 0)
    m.set("memory_terminations", message.memory_terminations);
  return m;
}

support::Json components_to_json(
    const std::vector<analysis::components::ComponentHit>& components) {
  JsonArray out;
  for (const analysis::components::ComponentHit& hit : components) {
    Json c{JsonObject{}};
    c.set("name", hit.name);
    c.set("version", hit.version);
    c.set("risky", hit.risky);
    if (hit.risky) c.set("risk_note", hit.risk_note);
    c.set("matched_functions", static_cast<int>(hit.matched_functions));
    c.set("total_functions", static_cast<int>(hit.total_functions));
    c.set("unique_matches", static_cast<int>(hit.unique_matches));
    c.set("substituted_functions",
          static_cast<int>(hit.substituted_functions));
    c.set("version_ambiguous", hit.version_ambiguous);
    JsonArray names;
    for (const std::string& n : hit.matched_names) names.emplace_back(n);
    c.set("matched_names", Json(std::move(names)));
    out.push_back(std::move(c));
  }
  return Json(std::move(out));
}

support::Json analysis_to_json(const DeviceAnalysis& analysis,
                               bool include_timings) {
  Json doc{JsonObject{}};
  doc.set("format", "firmres-report");
  doc.set("device_id", analysis.device_id);
  doc.set("device_cloud_executable", analysis.device_cloud_executable);
  doc.set("discarded_lan_messages", analysis.discarded_lan);

  JsonArray messages;
  for (const ReconstructedMessage& m : analysis.messages)
    messages.push_back(message_to_json(m));
  doc.set("messages", Json(std::move(messages)));

  // Keep/drop provenance per built MFT (§IV-D LAN filter audit trail).
  JsonArray decisions;
  for (const MftDecision& d : analysis.mft_decisions) {
    Json o{JsonObject{}};
    o.set("delivery_address",
          support::format("0x%llx",
                          static_cast<unsigned long long>(
                              d.delivery_address)));
    o.set("delivery_callee", d.delivery_callee);
    o.set("kept", d.kept);
    o.set("reason", d.reason);
    decisions.push_back(std::move(o));
  }
  doc.set("mft_decisions", Json(std::move(decisions)));

  JsonArray alarms;
  for (const FlawReport& flaw : analysis.flaws) {
    Json a{JsonObject{}};
    a.set("message_index", static_cast<double>(flaw.message_index));
    a.set("kind", std::string(flaw_kind_name(flaw.kind)));
    a.set("detail", flaw.detail);
    JsonArray present;
    for (const fw::Primitive p : flaw.present)
      present.emplace_back(std::string(fw::primitive_name(p)));
    a.set("primitives_present", Json(std::move(present)));
    alarms.push_back(std::move(a));
  }
  doc.set("alarms", Json(std::move(alarms)));

  Json value_flow{JsonObject{}};
  value_flow.set("indirect_calls_total", analysis.indirect_calls_total);
  value_flow.set("indirect_calls_resolved", analysis.indirect_calls_resolved);
  value_flow.set("resolution_rate",
                 analysis.indirect_calls_total == 0
                     ? 1.0
                     : static_cast<double>(analysis.indirect_calls_resolved) /
                           analysis.indirect_calls_total);
  value_flow.set("opaque_terminations", analysis.opaque_terminations);
  value_flow.set("param_terminations", analysis.param_terminations);
  doc.set("value_flow", std::move(value_flow));

  // Points-to memory def-use visibility (docs/POINTSTO.md) — the memory
  // analogue of the value_flow block above. Always present: zero counters
  // on memory-free firmware still tell the analyst the pass ran.
  Json memory_flow{JsonObject{}};
  memory_flow.set("loads_total",
                  static_cast<std::int64_t>(analysis.memory_flow.loads_total));
  memory_flow.set(
      "loads_resolved",
      static_cast<std::int64_t>(analysis.memory_flow.loads_resolved));
  memory_flow.set(
      "loads_with_stores",
      static_cast<std::int64_t>(analysis.memory_flow.loads_with_stores));
  memory_flow.set(
      "stores_total",
      static_cast<std::int64_t>(analysis.memory_flow.stores_total));
  memory_flow.set(
      "stores_never_loaded",
      static_cast<std::int64_t>(analysis.memory_flow.stores_never_loaded));
  memory_flow.set("resolution_rate",
                  analysis.memory_flow.loads_total == 0
                      ? 1.0
                      : static_cast<double>(analysis.memory_flow.loads_resolved) /
                            static_cast<double>(analysis.memory_flow.loads_total));
  memory_flow.set("memory_terminations", analysis.memory_terminations);
  doc.set("memory_flow", std::move(memory_flow));

  // Per-device component inventory (docs/COMPONENTS.md). Present only when
  // a registry was supplied and matched, so registry-less reports are
  // byte-identical to pre-registry ones.
  if (!analysis.components.empty())
    doc.set("components", components_to_json(analysis.components));

  // Work metrics only (docs/OBSERVABILITY.md) — deterministic at any jobs
  // level, so the block survives the timings-omitted byte comparison.
  Json metrics{JsonObject{}};
  for (const auto& [name, value] : analysis.metrics)
    metrics.set(name, static_cast<double>(value));
  doc.set("metrics", std::move(metrics));

  if (include_timings) {
    Json timings{JsonObject{}};
    for (const Phase& phase : kPhases)
      timings.set(phase.report_key, analysis.timings.*phase.slot);
    timings.set("total_s", analysis.timings.total_s());
    timings.set("cpu_total_s", analysis.timings.cpu_total_s);
    doc.set("timings", std::move(timings));
  }
  return doc;
}

}  // namespace firmres::core
