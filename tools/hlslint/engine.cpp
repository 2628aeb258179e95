// Engine: walks the tree, runs the rules, applies allow-comment
// suppression, and keeps everything deterministic (sorted walks,
// std::map/std::set throughout — the linter holds itself to the rules it
// enforces).
#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "hlslint/lint.hpp"

namespace hlslint {

namespace fs = std::filesystem;

const std::vector<std::pair<std::string, std::string>>& rule_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kRules = {
      {"layer-order",
       "include edges must follow util < obs < sim < net/db < workload < "
       "baseline/model < routing < hybrid < core (header-only whitelist "
       "aside)"},
      {"layer-cycle", "the file-level include graph must be acyclic"},
      {"include-style",
       "src/ includes are repo-relative (\"<layer>/<file>\"); no \"..\""},
      {"pragma-once", "every header starts with #pragma once"},
      {"wall-clock",
       "no host clocks in simulation code; use Simulator::now()"},
      {"global-rng",
       "no ambient RNG; fork hls::Rng streams from the config seed"},
      {"unordered-iter",
       "std::unordered_* iteration must not feed ordered output unsorted"},
      {"hls-assert", "invariants use HLS_ASSERT, not assert()"},
      {"float-eq", "no floating-point == / != in src/"},
      {"callback-epoch",
       "scheduled lambdas capturing txn state carry a ticket and "
       "revalidate via find()"},
      {"bench-time-scale",
       "every bench main() honors HLS_TIME_SCALE via bench::scaled_options "
       "or time_scale_from_env"},
  };
  return kRules;
}

bool known_rule(const std::string& rule) {
  for (const auto& [id, desc] : rule_catalog()) {
    (void)desc;
    if (id == rule) {
      return true;
    }
  }
  return false;
}

namespace {

/// The directories lint walks, in deterministic order.
const std::vector<std::string>& scan_roots() {
  static const std::vector<std::string> kRoots = {"src", "tests", "bench",
                                                  "examples", "tools"};
  return kRoots;
}

bool lintable(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp";
}

/// Repo-relative path with '/' separators.
std::string rel_str(const fs::path& p, const fs::path& root) {
  return fs::path(p).lexically_relative(root).generic_string();
}

std::vector<SourceFile> collect_files(const Options& opts) {
  std::vector<std::string> paths;
  fs::path root(opts.root);
  for (const std::string& top : scan_roots()) {
    fs::path dir = root / top;
    if (!fs::is_directory(dir)) {
      continue;
    }
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();  // intentionally-bad test inputs
        continue;
      }
      if (it->is_regular_file() && lintable(it->path())) {
        paths.push_back(rel_str(it->path(), root));
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& rel : paths) {
    if (auto f = load_source((root / rel).string(), rel)) {
      files.push_back(std::move(*f));
    }
  }
  return files;
}

std::vector<Finding> raw_findings(const std::vector<SourceFile>& files,
                                  const Options& opts) {
  std::vector<Finding> findings;
  for (const SourceFile& f : files) {
    check_text_rules(f, findings);
  }
  check_layering(files, findings);

  auto enabled = [&](const std::string& rule) {
    if (!opts.only.empty() && !opts.only.count(rule)) {
      return false;
    }
    return opts.disabled.count(rule) == 0;
  };
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    if (enabled(f.rule)) {
      kept.push_back(std::move(f));
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    return a.rule < b.rule;
  });
  return kept;
}

/// An `hlslint:allow(rule)` comment suppresses findings of that rule on its
/// own line and on the line directly below (for standalone comment lines).
bool allow_suppressed(const Finding& f, const SourceFile& file) {
  for (int line : {f.line, f.line - 1}) {
    auto it = file.allows.find(line);
    if (it != file.allows.end() && it->second.count(f.rule)) {
      return true;
    }
  }
  return false;
}

}  // namespace

LintResult lint_tree(const Options& opts) {
  LintResult result;
  std::vector<SourceFile> files = collect_files(opts);
  result.files_scanned = static_cast<int>(files.size());
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& f : files) {
    by_path[f.path] = &f;
  }

  for (const Finding& f : raw_findings(files, opts)) {
    auto it = by_path.find(f.file);
    if (it != by_path.end() && allow_suppressed(f, *it->second)) {
      ++result.suppressed_allow;
      continue;
    }
    result.findings.push_back(f);
  }
  return result;
}

std::optional<std::string> find_repo_root(const std::string& start) {
  fs::path p = fs::absolute(start);
  for (; !p.empty(); p = p.parent_path()) {
    if (fs::exists(p / "CLAUDE.md") && fs::is_directory(p / "src")) {
      return p.string();
    }
    if (p == p.root_path()) {
      break;
    }
  }
  return std::nullopt;
}

}  // namespace hlslint
