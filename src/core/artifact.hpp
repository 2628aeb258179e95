// Canonical run artifact: the JSON document serialized next to a RunResult.
//
// Layout (docs/OBSERVABILITY.md "Run artifact"):
//
//   {"schema":"hls-run-artifact-v1",
//    "run":{...provenance: strategy, seed, sites, window...},
//    "registry":{...obs::Registry::write_json...}}
//
// Canonical bytes: keys are emitted in a fixed order, numbers in shortest
// round-trip form, and the registry serialization is order-independent, so
// same-seed runs produce byte-identical artifacts across reruns, HLS_JOBS
// values and machines. tests/core/artifact_test.cpp checks the registry's
// cross-metric accounting identities; tools/hlsreport diffs two artifacts
// and gates regressions.
#pragma once

#include <iosfwd>
#include <string>

namespace hls {

struct RunResult;

inline constexpr const char* kRunArtifactSchema = "hls-run-artifact-v1";

/// Serializes `result` (provenance + metric registry) as canonical JSON.
void write_run_artifact(std::ostream& out, const RunResult& result);

/// Writes the artifact to `path`; false when the file cannot be opened or
/// written (the caller names the path in its own message).
[[nodiscard]] bool write_run_artifact_file(const std::string& path,
                                           const RunResult& result);

}  // namespace hls
