#include "core/explain.h"

#include <cctype>

#include "support/error.h"
#include "support/strings.h"

namespace firmres::core {

namespace {

using support::Json;

std::string str_or(const Json& obj, const char* key,
                   const std::string& fallback = {}) {
  const Json* value = obj.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : fallback;
}

int int_or(const Json& obj, const char* key, int fallback = 0) {
  const Json* value = obj.find(key);
  return value != nullptr && value->is_number()
             ? static_cast<int>(value->as_number())
             : fallback;
}

bool is_ordinal(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s)
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

/// The device's analysis object inside a single- or multi-image report.
const Json& device_report(const Json& report, int device_id) {
  if (report.is_array()) {
    for (const Json& entry : report.as_array()) {
      if (entry.is_object() && int_or(entry, "device_id", -1) == device_id)
        return entry;
    }
    throw support::ParseError("no device " + std::to_string(device_id) +
                              " in this report");
  }
  if (!report.is_object() || report.find("device_id") == nullptr)
    throw support::ParseError("not a firmres report document");
  if (int_or(report, "device_id", -1) != device_id)
    throw support::ParseError(
        "report is for device " +
        std::to_string(int_or(report, "device_id", -1)) + ", not device " +
        std::to_string(device_id));
  return report;
}

void render_field(const Json& message, const Json& field, int ordinal,
                  std::string& out) {
  const std::string key = str_or(field, "key");
  out += support::format("  [%d] field \"%s\" -> %s", ordinal, key.c_str(),
                         str_or(field, "semantics", "?").c_str());
  out += " (source " + str_or(field, "source", "?");
  const std::string detail = str_or(field, "source_detail");
  if (!detail.empty()) out += ": " + detail;
  out += ")";
  if (const Json* hc = field.find("hardcoded");
      hc != nullptr && hc->is_bool() && hc->as_bool())
    out += " [hardcoded]";
  out += "\n";

  out += "      callsite " + str_or(message, "delivery_address", "?") +
         " via " + str_or(message, "delivery_callee", "?") + "\n";

  const Json* prov = field.find("provenance");
  if (prov == nullptr || !prov->is_object()) {
    out += "      (no provenance block in this report)\n";
    return;
  }

  // §IV-B taint walk.
  std::string chain;
  if (const Json* visited = prov->find("visited_functions");
      visited != nullptr && visited->is_array()) {
    for (const Json& fn : visited->as_array()) {
      if (!chain.empty()) chain += " > ";
      chain += fn.is_string() ? fn.as_string() : "?";
    }
  }
  out += "      taint: " + (chain.empty() ? "(no walk recorded)" : chain);
  out += support::format(
      " — terminated at %s (depth %d, %d devirtualized, %d caller ascents",
      str_or(*prov, "termination", "?").c_str(),
      int_or(*prov, "taint_depth"), int_or(*prov, "devirt_crossings"),
      int_or(*prov, "callsite_crossings"));
  if (const int memory = int_or(*prov, "memory_crossings"); memory > 0)
    out += support::format(", %d memory store hops", memory);
  out += ")\n";

  if (const Json* steps = prov->find("construction_path");
      steps != nullptr && steps->is_array() && steps->size() > 0) {
    std::string rendered;
    for (const Json& step : steps->as_array()) {
      if (!rendered.empty()) rendered += " ; ";
      rendered += step.is_string() ? step.as_string() : "?";
    }
    out += "      construction: " + rendered + "\n";
  }

  // Registry-matched library crossings (docs/COMPONENTS.md).
  if (const Json* components = prov->find("registry_components");
      components != nullptr && components->is_array() &&
      components->size() > 0) {
    std::string rendered;
    for (const Json& label : components->as_array()) {
      if (!rendered.empty()) rendered += ", ";
      rendered += label.is_string() ? label.as_string() : "?";
    }
    out += "      resolved via registry match: " + rendered + "\n";
  }

  // §IV-C format-split decision.
  if (const Json* split = prov->find("split");
      split != nullptr && split->is_object()) {
    const Json* score = split->find("score");
    out += support::format(
        "      split: piece \"%s\" — delimiter '%s', cohesion %.3f, "
        "%d pieces\n",
        str_or(*split, "format_piece").c_str(),
        str_or(*split, "delimiter").c_str(),
        score != nullptr && score->is_number() ? score->as_number() : 0.0,
        int_or(*split, "pieces"));
  }

  // §IV-C classifier decision.
  const Json* margin = prov->find("margin");
  out += support::format(
      "      classifier %s — margin %.3f\n",
      str_or(*prov, "model", "?").c_str(),
      margin != nullptr && margin->is_number() ? margin->as_number() : 0.0);
  if (const Json* scores = prov->find("label_scores");
      scores != nullptr && scores->is_object() && scores->size() > 0) {
    std::string line;
    for (const auto& [label, value] : scores->as_object()) {
      if (!line.empty()) line += " | ";
      line += support::format(
          "%s %.3f", label.c_str(),
          value.is_number() ? value.as_number() : 0.0);
    }
    out += "        " + line + "\n";
  }
}

}  // namespace

std::string explain_report(const Json& report,
                           const ExplainOptions& options) {
  const Json& device = device_report(report, options.device_id);
  if (str_or(device, "format") != "firmres-report")
    throw support::ParseError("not a firmres report document");

  std::string out = support::format(
      "device %d — %s\n", options.device_id,
      str_or(device, "device_cloud_executable", "(no executable)").c_str());

  // Component inventory (docs/COMPONENTS.md).
  if (const Json* components = device.find("components");
      components != nullptr && components->is_array() &&
      components->size() > 0) {
    out += "\ncomponents:\n";
    for (const Json& c : components->as_array()) {
      const Json* risky = c.find("risky");
      const Json* ambiguous = c.find("version_ambiguous");
      out += support::format(
          "  %s %s — %d/%d functions matched, %d substituted",
          str_or(c, "name", "?").c_str(), str_or(c, "version", "?").c_str(),
          int_or(c, "matched_functions"), int_or(c, "total_functions"),
          int_or(c, "substituted_functions"));
      if (ambiguous != nullptr && ambiguous->is_bool() &&
          ambiguous->as_bool())
        out += " [version ambiguous]";
      if (risky != nullptr && risky->is_bool() && risky->as_bool())
        out += " [RISKY: " + str_or(c, "risk_note", "?") + "]";
      out += "\n";
    }
  }

  // Points-to memory def-use visibility (docs/POINTSTO.md). Absent from
  // pre-points-to reports; skipped silently then.
  if (const Json* memory = device.find("memory_flow");
      memory != nullptr && memory->is_object()) {
    const Json* rate = memory->find("resolution_rate");
    out += support::format(
        "\nmemory flow: %d/%d loads resolved (%.1f%%), %d via stores, "
        "%d stores (%d never loaded), %d unresolved-load terminations\n",
        int_or(*memory, "loads_resolved"), int_or(*memory, "loads_total"),
        (rate != nullptr && rate->is_number() ? rate->as_number() : 1.0) *
            100.0,
        int_or(*memory, "loads_with_stores"),
        int_or(*memory, "stores_total"),
        int_or(*memory, "stores_never_loaded"),
        int_or(*memory, "memory_terminations"));
  }

  // §IV-D keep/drop provenance per built MFT.
  if (const Json* decisions = device.find("mft_decisions");
      decisions != nullptr && decisions->is_array() &&
      decisions->size() > 0) {
    out += "\nmft decisions:\n";
    for (const Json& d : decisions->as_array()) {
      const Json* kept = d.find("kept");
      out += support::format(
          "  %s %s: %s (%s)\n", str_or(d, "delivery_address", "?").c_str(),
          str_or(d, "delivery_callee", "?").c_str(),
          kept != nullptr && kept->is_bool() && kept->as_bool() ? "kept"
                                                                : "dropped",
          str_or(d, "reason", "?").c_str());
    }
  }

  const Json* messages = device.find("messages");
  if (messages == nullptr || !messages->is_array())
    throw support::ParseError("report has no messages array");

  const bool by_ordinal = is_ordinal(options.field);
  const int want_ordinal = by_ordinal ? std::stoi(options.field) : -1;
  int ordinal = 0;
  int rendered = 0;
  for (const Json& message : messages->as_array()) {
    std::string header = support::format(
        "\nmessage %s via %s — %s",
        str_or(message, "delivery_address", "?").c_str(),
        str_or(message, "delivery_callee", "?").c_str(),
        str_or(message, "format", "?").c_str());
    const std::string endpoint = str_or(message, "endpoint_path");
    if (!endpoint.empty()) header += ", endpoint " + endpoint;
    const std::string host = str_or(message, "host");
    if (!host.empty()) header += ", host " + host;
    header += "\n";
    bool header_emitted = false;

    const Json* fields = message.find("fields");
    if (fields == nullptr || !fields->is_array()) continue;
    for (const Json& field : fields->as_array()) {
      const int this_ordinal = ordinal++;
      if (by_ordinal && this_ordinal != want_ordinal) continue;
      if (!by_ordinal && !options.field.empty() &&
          str_or(field, "key") != options.field)
        continue;
      if (!header_emitted) {
        out += header;
        header_emitted = true;
      }
      render_field(message, field, this_ordinal, out);
      ++rendered;
    }
  }

  if (rendered == 0 && !options.field.empty())
    throw support::ParseError("no field matches '" + options.field +
                              "' on device " +
                              std::to_string(options.device_id));
  if (rendered == 0) out += "\n(no reconstructed fields)\n";
  return out;
}

}  // namespace firmres::core
