// Span-profile aggregation (docs/OBSERVABILITY.md).
//
// fold() turns the flat list of completed trace spans back into the call
// tree it came from — per thread, spans nest by containment, so sorting by
// start time with longer durations first reconstructs each stack exactly —
// and then aggregates every distinct root-to-span path ("pipeline.device;
// phase.fields;taint.build") into one entry with a total time (sum of the
// span's own durations), a self time (total minus time spent in direct
// child spans), and an occurrence count. The fold is deterministic: the
// same event list always produces the same entries in the same order
// (entries are keyed and sorted by stack path), so profiles of a given
// trace diff cleanly.
//
// to_collapsed() renders the entries in Brendan Gregg's collapsed-stack
// format ("path;leaf self_us" per line), loadable by speedscope and
// flamegraph.pl. The CLI writes it via --profile-out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/observability/trace.h"

namespace firmres::support::profile {

/// One aggregated stack path.
struct Entry {
  /// Semicolon-joined span names from root to leaf ("a;b;c").
  std::string stack;
  /// Sum of the durations of every span instance at this path.
  std::uint64_t total_ns = 0;
  /// total_ns minus time covered by direct child spans (clamped at 0 —
  /// overlapping siblings cannot drive self time negative).
  std::uint64_t self_ns = 0;
  /// Number of span instances folded into this entry.
  std::uint64_t count = 0;
};

/// Fold completed spans into aggregated stack entries, sorted by stack
/// path. Nesting is reconstructed per recording thread by containment.
std::vector<Entry> fold(const std::vector<trace::Event>& events);

/// Render entries as collapsed-stack lines: `stack self_us`, one per
/// entry with nonzero self time (the format's sample weight must be a
/// positive integer). Sorted by stack path.
std::string to_collapsed(const std::vector<Entry>& entries);

/// fold(events) + to_collapsed + write to `path`. Throws
/// support::ParseError when the file cannot be written.
void write_collapsed(const std::string& path,
                     const std::vector<trace::Event>& events);

}  // namespace firmres::support::profile
