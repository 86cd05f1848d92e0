// `firmres explain`: render a root-to-leaf derivation for every
// reconstructed field of one device, from the report JSON alone.
//
// The report's per-field `provenance` block (docs/PROVENANCE.md) carries
// the full decision record — taint-walk chain and termination (§IV-B),
// format-split decision (§IV-C separation), classifier scores and margin
// (§IV-C semantics), and the §IV-D keep/drop verdict per MFT — so the
// renderer needs no firmware image, model, or re-analysis: an analyst can
// audit a claim from the report artifact a CI run archived.
#pragma once

#include <string>

#include "support/json.h"

namespace firmres::core {

struct ExplainOptions {
  /// Device to explain (matched against each report's device_id).
  int device_id = 0;
  /// Field selector; empty explains every field. A decimal integer selects
  /// the K-th field counting across the device's messages in report order;
  /// anything else matches field keys exactly.
  std::string field = {};
};

/// Render the derivation text for one device of a report document (either
/// a single analysis object or the array form `analyze` emits for several
/// images). Throws support::ParseError when the document is not a firmres
/// report, the device is absent, or the field selector matches nothing.
std::string explain_report(const support::Json& report,
                           const ExplainOptions& options);

}  // namespace firmres::core
