// Whole-file reads for the loaders of untrusted inputs (image manifests and
// IR, cache entries, the component registry, model files, stats and explain
// artifacts).
#pragma once

#include <optional>
#include <string>

namespace firmres::support {

/// The bytes of the file at `path`, read with one read sized by its length
/// (a file that grows meanwhile is still read to its end), or nullopt when
/// it cannot be opened or read. Callers map nullopt to their own failure: a
/// cache miss, a typed ParseError, a CLI error line.
std::optional<std::string> read_file(const std::string& path);

}  // namespace firmres::support
