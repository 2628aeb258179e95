// Semantic repo model: the cross-artifact facts the contract rules check,
// assembled in one pass over the scanned files (plus the Markdown docs,
// which are read here but never linted).
//
// Each section is extracted structurally via the AST-lite layer
// (tools/hlslint/ast.hpp) and records where every fact came from, so a
// rule can anchor its finding on the declaration that needs fixing:
//
//   * SystemConfig fields and the config key list entries
//     (`key("x", c.field, ...)` in for_each_config_key), plus the
//     concatenated docs text;
//   * obs::Registry registration sites with (name, unit);
//   * the include-graph edge count, for the parser smoke test.
//
// A section is only meaningful when its anchor artifacts exist in the
// scanned tree (fixture trees model a subset); each rule checks the
// corresponding `has_*` gate before firing.
#pragma once

#include <string>
#include <vector>

#include "hlslint/lint.hpp"

namespace hlslint {

/// Where a modeled fact was extracted from.
struct ModelSite {
  std::string file;
  int line = 0;
};

struct ConfigFieldModel {
  std::string name;
  std::string type;
  ModelSite site;
};

/// One config key list entry: the key and the member chain it sets,
/// relative to the config ("num_sites", "faults.dup_prob").
struct ConfigKeyModel {
  std::string key;
  std::string field;
  ModelSite site;
};

struct RegistrationModel {
  std::string name;
  std::string unit;
  ModelSite site;
};

struct RepoModel {
  // ---- config round trip ----
  bool has_config_struct = false;
  bool has_config_keys = false;
  std::vector<ConfigFieldModel> config_fields;  // SystemConfig members
  std::vector<ConfigKeyModel> config_keys;      // for_each_config_key entries
  std::string docs_text;  // all *.md under <root> and <root>/docs

  // ---- registry instruments ----
  std::vector<RegistrationModel> registrations;

  // ---- include graph (parser smoke) ----
  int include_edges = 0;

  /// True when `word` occurs in the docs text delimited by non-identifier
  /// characters (so `seed` does not match `reseed`).
  [[nodiscard]] bool documented(const std::string& word) const;
};

/// Assembles the model from the scanned files. `root` locates the Markdown
/// docs (<root>/*.md and <root>/docs/*.md); pass "" to skip docs loading
/// (synthetic in-memory trees).
RepoModel build_model(const std::vector<SourceFile>& files,
                      const std::string& root);

/// Cross-artifact contract rules over the model (config-roundtrip,
/// registry-unit, bench-time-scale). `files` supplies the per-file context
/// the bench rule needs.
void check_model_rules(const RepoModel& model,
                       const std::vector<SourceFile>& files,
                       std::vector<Finding>& out);

}  // namespace hlslint
