// Repo-model assembly (see model.hpp). One pass over the scanned files:
// every extraction is keyed by artifact names (SystemConfig,
// for_each_config_key, the Registry methods)
// rather than fixed paths, so fixture trees and scratch trees model the
// same contracts as the live repo with a handful of small files.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hlslint/ast.hpp"
#include "hlslint/model.hpp"

namespace hlslint {

namespace fs = std::filesystem;

namespace {

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool is_identifier(const std::string& s) {
  if (s.empty() || (s[0] >= '0' && s[0] <= '9')) {
    return false;
  }
  for (char c : s) {
    if (!ident_char(c)) {
      return false;
    }
  }
  return true;
}

void extract_config(const SourceFile& f, RepoModel& model) {
  for (const ast::Record& r : ast::records(f)) {
    if (r.name != "SystemConfig") {
      continue;
    }
    model.has_config_struct = true;
    for (const ast::Field& fld : ast::record_fields(f, r)) {
      model.config_fields.push_back(
          ConfigFieldModel{fld.name, fld.type, ModelSite{f.path, fld.line}});
    }
  }
}

/// Entries of the config key list: inside a for_each_config_key body, every
/// `key("name", c.field, ...)` call names a key (the first argument, an
/// identifier literal) and the member chain it sets (the second argument,
/// recorded without the config parameter: "num_sites", "faults.dup_prob").
void extract_config_keys(const SourceFile& f, RepoModel& model) {
  const std::string& text = f.code_text;
  const std::vector<ast::StringLit> lits = ast::string_literals(f);
  for (const ast::Function& fn : ast::functions(f)) {
    if (fn.name != "for_each_config_key") {
      continue;
    }
    model.has_config_keys = true;
    for (const ast::StringLit& lit : lits) {
      if (lit.offset <= fn.body_open || lit.offset >= fn.body_close ||
          !is_identifier(lit.value)) {
        continue;
      }
      const std::size_t open = text.find_last_not_of(" \n", lit.offset - 1);
      const std::size_t comma =
          text.find_first_not_of(" \n", lit.offset + lit.value.size() + 2);
      if (open == std::string::npos || text[open] != '(' ||
          comma == std::string::npos || text[comma] != ',') {
        continue;
      }
      const std::size_t begin = text.find_first_not_of(" \n", comma + 1);
      std::size_t end = begin;
      while (end < text.size() && (ident_char(text[end]) || text[end] == '.')) {
        ++end;
      }
      const std::size_t dot = text.find('.', begin);
      if (begin == std::string::npos || dot >= end) {
        continue;
      }
      model.config_keys.push_back(ConfigKeyModel{
          lit.value, text.substr(dot + 1, end - dot - 1),
          ModelSite{f.path, lit.line}});
    }
  }
}

bool includes_registry_header(const SourceFile& f) {
  for (const auto& [line, inc] : ast::includes(f)) {
    (void)line;
    if (inc == "obs/registry.hpp") {
      return true;
    }
  }
  return false;
}

void extract_registrations(const SourceFile& f, RepoModel& model) {
  if (starts_with(f.path, "src/obs/registry.") || !includes_registry_header(f)) {
    return;
  }
  static const std::vector<std::string> kMethods = {
      "counter", "gauge", "stat", "time_weighted", "histogram",
      "bucket_counter",
  };
  std::vector<ast::StringLit> lits = ast::string_literals(f);
  for (const std::string& method : kMethods) {
    for (const ast::Call& call : ast::member_calls(f.code_text, method)) {
      std::vector<const ast::StringLit*> inside;
      for (const ast::StringLit& lit : lits) {
        if (lit.offset > call.open && lit.offset < call.close) {
          inside.push_back(&lit);
        }
      }
      if (inside.empty()) {
        continue;  // registry-name reports non-literal names
      }
      RegistrationModel reg;
      reg.name = inside.front()->value;
      reg.site = ModelSite{f.path, f.line_of(call.name_pos)};
      if (inside.size() >= 2) {
        reg.unit = inside.back()->value;
      } else if (method == "counter" || method == "bucket_counter") {
        reg.unit = "count";  // the declared default argument
      } else {
        continue;  // unit not statically known; skip the site
      }
      model.registrations.push_back(std::move(reg));
    }
  }
}

std::string load_docs(const std::string& root) {
  if (root.empty()) {
    return "";
  }
  std::vector<std::string> paths;
  for (const fs::path& dir : {fs::path(root), fs::path(root) / "docs"}) {
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
      continue;
    }
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".md") {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::ostringstream all;
  for (const std::string& p : paths) {
    std::ifstream in(p, std::ios::binary);
    all << in.rdbuf() << '\n';
  }
  return all.str();
}

}  // namespace

bool RepoModel::documented(const std::string& word) const {
  std::size_t pos = 0;
  while ((pos = docs_text.find(word, pos)) != std::string::npos) {
    bool left = pos == 0 || !ident_char(docs_text[pos - 1]);
    std::size_t after = pos + word.size();
    bool right = after >= docs_text.size() || !ident_char(docs_text[after]);
    if (left && right) {
      return true;
    }
    pos = after;
  }
  return false;
}

RepoModel build_model(const std::vector<SourceFile>& files,
                      const std::string& root) {
  RepoModel model;
  for (const SourceFile& f : files) {
    extract_config(f, model);
    extract_config_keys(f, model);
    extract_registrations(f, model);
    model.include_edges += static_cast<int>(ast::includes(f).size());
  }
  model.docs_text = load_docs(root);
  return model;
}

}  // namespace hlslint
