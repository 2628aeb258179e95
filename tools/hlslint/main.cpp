// hlslint CLI. Exit codes: 0 clean, 1 findings, 2 usage/setup error.
//
//   hlslint                      lint the repo (root auto-detected upward)
//   hlslint --root DIR           lint an explicit tree
//   hlslint --only a,b           run a subset of rules
//   hlslint --disable a,b        skip rules
//   hlslint --list-rules         print the rule catalogue
#include <cstdio>
#include <string>

#include "hlslint/lint.hpp"

namespace {

void split_rules(const std::string& arg, std::set<std::string>& out) {
  std::string id;
  for (char c : arg + ",") {
    if (c == ',' || c == ' ') {
      if (!id.empty()) {
        out.insert(id);
        id.clear();
      }
    } else {
      id.push_back(c);
    }
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root DIR] [--only RULES] [--disable RULES]\n"
               "          [--list-rules]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hlslint::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = value();
      if (v == nullptr) {
        return usage(argv[0]);
      }
      opts.root = v;
    } else if (arg == "--only") {
      const char* v = value();
      if (v == nullptr) {
        return usage(argv[0]);
      }
      split_rules(v, opts.only);
    } else if (arg == "--disable") {
      const char* v = value();
      if (v == nullptr) {
        return usage(argv[0]);
      }
      split_rules(v, opts.disabled);
    } else if (arg == "--list-rules") {
      for (const auto& [id, desc] : hlslint::rule_catalog()) {
        std::printf("%-16s %s\n", id.c_str(), desc.c_str());
      }
      return 0;
    } else {
      return usage(argv[0]);
    }
  }
  for (const std::set<std::string>* rules : {&opts.only, &opts.disabled}) {
    for (const std::string& r : *rules) {
      if (!hlslint::known_rule(r)) {
        std::fprintf(stderr, "hlslint: unknown rule '%s' (--list-rules)\n",
                     r.c_str());
        return 2;
      }
    }
  }

  if (opts.root.empty()) {
    auto root = hlslint::find_repo_root(".");
    if (!root) {
      std::fprintf(stderr,
                   "hlslint: cannot find repo root (CLAUDE.md + src/) above "
                   "the current directory; pass --root\n");
      return 2;
    }
    opts.root = *root;
  }

  hlslint::LintResult result = hlslint::lint_tree(opts);
  for (const hlslint::Finding& f : result.findings) {
    std::printf("%s:%d: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  std::fprintf(stderr,
               "hlslint: %zu finding(s) over %d files (%d allow-suppressed)\n",
               result.findings.size(), result.files_scanned,
               result.suppressed_allow);
  return result.findings.empty() ? 0 : 1;
}
