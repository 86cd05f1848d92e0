#include "core/stats.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/error.h"
#include "support/file.h"
#include "support/json.h"
#include "support/strings.h"

namespace firmres::core::stats {

namespace {

namespace metrics = support::metrics;
using support::Json;
using support::ParseError;

std::string read_file(const std::string& path) {
  std::optional<std::string> body = support::read_file(path);
  if (!body.has_value()) throw ParseError("cannot read artifact " + path);
  return std::move(*body);
}

/// Map a serialized bucket bound back to its index: "inf" is the unbounded
/// last bucket, otherwise the bound is the exact power of two 2^i written
/// for bucket i.
int bucket_index_for_bound(const std::string& bound, const std::string& path) {
  if (bound == "inf") return metrics::kHistogramBuckets - 1;
  for (int i = 0; i < metrics::kHistogramBuckets - 1; ++i) {
    if (bound == std::to_string(std::uint64_t{1} << i)) return i;
  }
  throw ParseError("unknown histogram bucket bound \"" + bound + "\" in " +
                   path);
}

struct Accumulator {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;  // max-merged
  std::map<std::string, metrics::Snapshot::HistogramValue> histograms;
  std::map<std::string, std::uint64_t> records;
};

std::uint64_t as_u64(const Json& value) {
  const double d = value.as_number();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

void merge_metrics_doc(const Json& doc, const std::string& path,
                       Accumulator& acc) {
  if (const Json* counters = doc.find("counters")) {
    for (const auto& [name, value] : counters->as_object())
      acc.counters[name] += as_u64(value);
  }
  if (const Json* gauges = doc.find("gauges")) {
    for (const auto& [name, value] : gauges->as_object()) {
      std::uint64_t& slot = acc.gauges[name];
      slot = std::max(slot, as_u64(value));
    }
  }
  if (const Json* histograms = doc.find("histograms")) {
    for (const auto& [name, entry] : histograms->as_object()) {
      metrics::Snapshot::HistogramValue& h = acc.histograms[name];
      if (h.name.empty()) {
        h.name = name;
        h.kind = metrics::Kind::Work;
        h.buckets.fill(0);
      }
      if (const Json* count = entry.find("count")) h.count += as_u64(*count);
      if (const Json* sum = entry.find("sum")) h.sum += as_u64(*sum);
      if (const Json* buckets = entry.find("buckets")) {
        for (const auto& [bound, n] : buckets->as_object()) {
          h.buckets[static_cast<std::size_t>(
              bucket_index_for_bound(bound, path))] += as_u64(n);
        }
      }
    }
  }
}

void tally_jsonl(const std::string& body, const std::string& path,
                 Accumulator& acc, std::uint64_t& lines) {
  std::istringstream in(body);
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    Json record;
    try {
      record = Json::parse(line);
    } catch (const ParseError&) {
      throw ParseError(path + ":" + std::to_string(line_no) +
                       ": not a JSON record");
    }
    ++lines;
    if (const Json* event = record.find("event"))
      ++acc.records["event:" + event->as_string()];
    else if (const Json* category = record.find("category"))
      ++acc.records["category:" + category->as_string()];
    else
      ++acc.records["other"];
  }
}

}  // namespace

Aggregate aggregate_artifacts(const std::vector<std::string>& paths) {
  Aggregate agg;
  Accumulator acc;
  for (const std::string& path : paths) {
    const std::string body = read_file(path);
    // A metrics dump is one pretty-printed document with a format stamp;
    // everything else (events logs, serve streams) is JSONL.
    bool is_metrics = false;
    const std::size_t first = body.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && body[first] == '{' &&
        body.find('\n') != std::string::npos) {
      try {
        const Json doc = Json::parse(body);
        const Json* format = doc.find("format");
        if (format != nullptr && format->as_string() == "firmres-metrics") {
          merge_metrics_doc(doc, path, acc);
          is_metrics = true;
        }
      } catch (const ParseError&) {
        is_metrics = false;  // multi-line JSONL; fall through
      }
    }
    if (is_metrics) {
      ++agg.metrics_files;
    } else {
      ++agg.jsonl_files;
      tally_jsonl(body, path, acc, agg.jsonl_lines);
    }
  }

  for (const auto& [name, value] : acc.counters)
    agg.merged.counters.push_back({name, metrics::Kind::Work, value});
  for (const auto& [name, value] : acc.gauges)
    agg.merged.gauges.push_back({name, metrics::Kind::Work, value});
  for (const auto& [name, h] : acc.histograms)
    agg.merged.histograms.push_back(h);
  for (const auto& [key, count] : acc.records)
    agg.record_counts.emplace_back(key, count);
  return agg;
}

std::string render_table(const Aggregate& aggregate) {
  std::string out = support::format(
      "firmres stats — %d metrics file(s), %d jsonl file(s), %llu jsonl "
      "record(s)\n",
      aggregate.metrics_files, aggregate.jsonl_files,
      static_cast<unsigned long long>(aggregate.jsonl_lines));

  if (!aggregate.merged.counters.empty()) {
    out += "\ncounters\n";
    for (const auto& c : aggregate.merged.counters)
      out += support::format("  %-44s %12llu\n", c.name.c_str(),
                             static_cast<unsigned long long>(c.value));
  }
  if (!aggregate.merged.gauges.empty()) {
    out += "\ngauges (max)\n";
    for (const auto& g : aggregate.merged.gauges)
      out += support::format("  %-44s %12llu\n", g.name.c_str(),
                             static_cast<unsigned long long>(g.value));
  }
  if (!aggregate.merged.histograms.empty()) {
    out += support::format("\nhistograms\n  %-28s %10s %12s %10s %10s %10s %10s\n",
                           "name", "count", "sum", "p50", "p90", "p99", "max");
    for (const auto& h : aggregate.merged.histograms) {
      out += support::format(
          "  %-28s %10llu %12llu %10.1f %10.1f %10.1f %10.1f\n",
          h.name.c_str(), static_cast<unsigned long long>(h.count),
          static_cast<unsigned long long>(h.sum),
          metrics::histogram_percentile(h, 0.50),
          metrics::histogram_percentile(h, 0.90),
          metrics::histogram_percentile(h, 0.99),
          metrics::histogram_percentile(h, 1.0));
    }
  }
  if (!aggregate.record_counts.empty()) {
    out += "\njsonl records\n";
    for (const auto& [key, count] : aggregate.record_counts)
      out += support::format("  %-44s %12llu\n", key.c_str(),
                             static_cast<unsigned long long>(count));
  }
  return out;
}

}  // namespace firmres::core::stats
