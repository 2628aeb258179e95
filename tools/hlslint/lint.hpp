// hlslint — project-specific static analysis for the hybridls tree.
//
// The simulator's headline claim is byte-identical determinism at any
// HLS_JOBS, and its correctness rests on invariants that no compiler checks:
// the acyclic layer order documented in CLAUDE.md, the no-wall-clock /
// no-global-RNG discipline, and the (TxnId, epoch) revalidation contract for
// event callbacks that can outlive a transaction run. This tool makes those
// rules mechanical: a lightweight lexer (comments and literal bodies blanked,
// no libclang), an include-graph builder, and a set of named token rules.
// Findings print `file:line: rule-id: message`; a `// hlslint:allow(rule-id)`
// comment suppresses a finding on its own or the next line.
//
// See docs/LINT.md for the rule catalogue.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace hlslint {

/// One diagnostic. `file` is repo-relative with '/' separators so output is
/// stable across machines; findings sort by (file, line, rule).
struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// A lexed source file. `code` mirrors `raw` line by line with comment text
/// and string/char-literal bodies replaced by spaces, so token rules never
/// fire on prose or on banned tokens quoted inside diagnostics (including
/// this tool's own rule tables). `code_text` is the same content joined with
/// newlines for rules that must match across lines (lambda bodies).
struct SourceFile {
  std::string path;  // repo-relative
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::string code_text;
  std::map<int, std::set<std::string>> allows;  // line -> rule ids allowed
  bool is_header = false;

  /// Maps a byte offset in `code_text` back to a 1-based line number.
  [[nodiscard]] int line_of(std::size_t offset) const;
};

struct Options {
  std::string root;                // absolute path of the repo root
  std::set<std::string> only;     // if non-empty, run only these rules
  std::set<std::string> disabled;  // rules to skip
};

struct LintResult {
  std::vector<Finding> findings;  // survivors after allow-comment filtering
  int files_scanned = 0;
  int suppressed_allow = 0;
};

// ---- lexer.cpp -----------------------------------------------------------

/// Lexes `text` into `out` (raw/code/code_text/allows). Exposed separately
/// from file loading so tests can feed synthetic snippets.
void lex_source(const std::string& text, SourceFile& out);

/// Reads `abs_path` and lexes it; `rel_path` is recorded for diagnostics.
/// Returns std::nullopt if the file cannot be read.
std::optional<SourceFile> load_source(const std::string& abs_path,
                                      const std::string& rel_path);

// ---- rules.cpp -----------------------------------------------------------

/// Runs every single-file rule (everything except layering) over `f`.
void check_text_rules(const SourceFile& f, std::vector<Finding>& out);

// ---- graph.cpp -----------------------------------------------------------

/// Layer rank of a repo-relative path, or -1 for files outside src/ (tests,
/// benches, examples and tools are consumers, not layers).
int layer_rank(const std::string& rel_path);

/// Headers includable from any layer: verified header-only leaf types.
const std::set<std::string>& header_only_whitelist();

/// Include-graph rules: layer-order on every `#include "..."` edge within
/// src/, cycle detection over the file-level graph, and the constraint that
/// whitelisted headers stay header-only (no sibling .cpp).
void check_layering(const std::vector<SourceFile>& files,
                    std::vector<Finding>& out);

// ---- engine.cpp ----------------------------------------------------------

/// Ordered rule catalogue: {rule id, one-line description}.
const std::vector<std::pair<std::string, std::string>>& rule_catalog();

/// True iff `rule` names a rule in the catalogue.
bool known_rule(const std::string& rule);

/// Lints src/, tests/, bench/, examples/ and tools/ under `opts.root`
/// (skipping any path containing a `fixtures` directory) and returns the
/// findings no allow-comment suppresses.
LintResult lint_tree(const Options& opts);

/// Walks upward from `start` looking for a directory holding CLAUDE.md and
/// src/; returns its absolute path.
std::optional<std::string> find_repo_root(const std::string& start);

}  // namespace hlslint
