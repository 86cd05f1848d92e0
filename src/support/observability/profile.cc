#include "support/observability/profile.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "support/error.h"

namespace firmres::support::profile {

namespace {

struct Totals {
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;
  std::uint64_t count = 0;
};

struct Open {
  std::uint64_t end_ns;
  std::string path;
};

}  // namespace

std::vector<Entry> fold(const std::vector<trace::Event>& events) {
  // Reconstruct nesting per thread: within one thread spans are properly
  // nested (RAII scopes), so after sorting by start time — longer spans
  // first on ties, so a parent precedes a child that starts with it — an
  // event's ancestors are exactly the previously seen spans that still
  // cover its start time.
  std::vector<const trace::Event*> ordered;
  ordered.reserve(events.size());
  for (const trace::Event& e : events) ordered.push_back(&e);
  std::sort(ordered.begin(), ordered.end(),
            [](const trace::Event* a, const trace::Event* b) {
              if (a->thread_id != b->thread_id)
                return a->thread_id < b->thread_id;
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              if (a->duration_ns != b->duration_ns)
                return a->duration_ns > b->duration_ns;
              return a->sequence < b->sequence;
            });

  // std::map keys the aggregation by stack path, which also fixes the
  // output order — entries come out sorted no matter how threads
  // interleaved at record time.
  std::map<std::string, Totals> by_path;
  std::vector<Open> stack;
  std::uint64_t current_thread = 0;
  bool have_thread = false;
  for (const trace::Event* e : ordered) {
    if (!have_thread || e->thread_id != current_thread) {
      stack.clear();
      current_thread = e->thread_id;
      have_thread = true;
    }
    while (!stack.empty() && stack.back().end_ns <= e->start_ns)
      stack.pop_back();
    std::string path =
        stack.empty() ? e->name : stack.back().path + ";" + e->name;
    if (!stack.empty()) by_path[stack.back().path].child_ns += e->duration_ns;
    Totals& t = by_path[path];
    t.total_ns += e->duration_ns;
    t.count += 1;
    stack.push_back({e->start_ns + e->duration_ns, std::move(path)});
  }

  std::vector<Entry> entries;
  entries.reserve(by_path.size());
  for (const auto& [path, t] : by_path) {
    Entry entry;
    entry.stack = path;
    entry.total_ns = t.total_ns;
    entry.self_ns = t.total_ns >= t.child_ns ? t.total_ns - t.child_ns : 0;
    entry.count = t.count;
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::string to_collapsed(const std::vector<Entry>& entries) {
  std::string out;
  for (const Entry& e : entries) {
    const std::uint64_t self_us = e.self_ns / 1000;
    if (self_us == 0) continue;  // sample weights must be positive integers
    out += e.stack;
    out += ' ';
    out += std::to_string(self_us);
    out += '\n';
  }
  return out;
}

void write_collapsed(const std::string& path,
                     const std::vector<trace::Event>& events) {
  const std::string body = to_collapsed(fold(events));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw ParseError("cannot write profile file " + path);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

}  // namespace firmres::support::profile
