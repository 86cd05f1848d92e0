// Scoped tracing for the FIRMRES pipeline (docs/OBSERVABILITY.md).
//
// A trace::Span is an RAII scope marker: construction records a start
// timestamp, destruction records the duration, and the completed event
// lands in a buffer owned by the recording thread — the hot path never
// touches a lock another thread contends for. Spans nest naturally
// (pipeline.device > phase.fields > taint.build), carry a category, an
// optional device id, and string key/value args. Spans record only while
// trace::set_enabled(true) is in effect (the CLI flips it when --trace-out
// is given); disabled, a span costs one relaxed atomic load.
//
// A span may also bill a slot: a `double` of seconds (a PhaseTimings
// field) to which it adds its duration when it closes. Such a span reads
// the clock whether or not tracing is on, and the seconds it adds are the
// duration_ns its trace event records — the one clock phase timings come
// from.
//
// collect() merges every thread's buffer into one event list with a
// deterministic total order (start time, then stable thread id, then a
// per-thread sequence number); to_chrome_json() renders that list in the
// chrome://tracing / Perfetto "traceEvents" format.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace firmres::support::trace {

/// Runtime gate. Off by default; flipping it on/off is safe at any time,
/// but events recorded by in-flight spans straddling the flip may be
/// partially dropped (a span checks the gate once, at construction).
void set_enabled(bool enabled);
bool enabled();

/// A completed span, as returned by collect().
struct Event {
  std::string name;
  std::string category;
  /// Device the span worked on; 0 when not device-scoped.
  int device_id = 0;
  /// Nanoseconds since an arbitrary (per-process) steady-clock epoch.
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  /// Stable small id of the recording thread (registration order).
  std::uint64_t thread_id = 0;
  /// Per-thread completion sequence number (ties broken deterministically).
  std::uint64_t sequence = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// RAII scope span. Without a slot it is cheap to construct when tracing
/// is disabled (one relaxed atomic load, no allocation). With a slot (not
/// owned; written only by the closing thread) it adds its duration, in
/// seconds, to `*slot` on close.
class Span {
 public:
  Span(const char* name, const char* category, int device_id = 0,
       double* slot = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a key/value argument (shown in the trace viewer's detail
  /// panel). No-op when the span is not recording.
  void arg(const char* key, std::string value);
  /// Set the device id once the span's work has learned it (a task that
  /// reads the id from the image it loads).
  void set_device(int device_id) { device_id_ = device_id; }

 private:
  bool live_ = false;  ///< recording (tracing was enabled at construction)
  double* slot_ = nullptr;
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  int device_id_ = 0;
  std::uint64_t start_ns_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Merge every thread's completed spans into one deterministically ordered
/// list (start_ns, thread_id, sequence) and clear the buffers.
std::vector<Event> collect();

/// Drop all buffered events without returning them.
void clear();

/// Render events in the chrome://tracing JSON object format:
/// {"traceEvents":[{"name":…,"cat":…,"ph":"X","ts":…,"dur":…,"pid":1,
/// "tid":…,"args":{…}}, …]}. Timestamps are microseconds (the format's
/// unit); load the file in Perfetto (ui.perfetto.dev) or chrome://tracing.
std::string to_chrome_json(const std::vector<Event>& events);

/// collect() + to_chrome_json() + write to `path`. Throws
/// support::ParseError when the file cannot be written.
void write_chrome_trace(const std::string& path);

/// Same, over an already-collected event list — for callers that share one
/// collect() between several exporters (collect() drains the buffers, so a
/// second exporter calling it again would see nothing).
void write_chrome_trace(const std::string& path,
                        const std::vector<Event>& events);

}  // namespace firmres::support::trace

// Convenience macros: create an anonymous span covering the rest of the
// enclosing scope. FIRMRES_SPAN_DEVICE takes the device id and, optionally,
// the slot to bill: FIRMRES_SPAN_DEVICE(name, category, id, &slot).
#define FIRMRES_SPAN_CAT2(a, b) a##b
#define FIRMRES_SPAN_CAT(a, b) FIRMRES_SPAN_CAT2(a, b)
#define FIRMRES_SPAN(name, category)                     \
  ::firmres::support::trace::Span FIRMRES_SPAN_CAT(      \
      firmres_span_, __LINE__)(name, category)
#define FIRMRES_SPAN_DEVICE(name, category, ...)         \
  ::firmres::support::trace::Span FIRMRES_SPAN_CAT(      \
      firmres_span_, __LINE__)(name, category, __VA_ARGS__)
