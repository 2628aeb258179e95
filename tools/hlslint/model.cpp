// Repo-model assembly (see model.hpp). One pass over the scanned files:
// every extraction is keyed by artifact names (SystemConfig,
// for_each_config_key, fork, the Registry methods)
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

/// Joins literal `i` with directly-adjacent following literals (only
/// whitespace between the closing and next opening quote — C++ literal
/// concatenation). Returns the joined value and advances `i` past the run.
std::string join_adjacent(const std::vector<ast::StringLit>& lits,
                          const std::string& code_text, std::size_t& i) {
  std::string value = lits[i].value;
  while (i + 1 < lits.size()) {
    // Closing quote of literal i: opening + body + 1. The lexer preserves
    // columns for single-line literals, so the body length equals the raw
    // value length.
    std::size_t close = lits[i].offset + lits[i].value.size() + 1;
    std::size_t next_open = lits[i + 1].offset;
    if (next_open <= close) {
      break;
    }
    bool only_ws = true;
    for (std::size_t p = close + 1; p < next_open; ++p) {
      if (code_text[p] != ' ' && code_text[p] != '\n') {
        only_ws = false;
        break;
      }
    }
    if (!only_ws) {
      break;
    }
    ++i;
    value += lits[i].value;
  }
  return value;
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

void extract_forks(const SourceFile& f, RepoModel& model) {
  std::vector<ast::StringLit> lits = ast::string_literals(f);
  for (const ast::Call& call : ast::member_calls(f.code_text, "fork")) {
    ForkSiteModel site;
    // Line of the call itself.
    int line = f.line_of(call.name_pos);
    site.site = ModelSite{f.path, line};
    for (const ast::StringLit& lit : lits) {
      if (lit.offset > call.open && lit.offset < call.close) {
        site.labeled = true;
        site.label = lit.value;
        break;
      }
    }
    model.forks.push_back(std::move(site));
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

/// Strips leading/trailing textual escapes ("\n", "\t") from a literal as
/// written (two source characters each).
std::string strip_edge_escapes(std::string s) {
  while (s.size() >= 2 && s[0] == '\\' && (s[1] == 'n' || s[1] == 't')) {
    s.erase(0, 2);
  }
  while (s.size() >= 2 && s[s.size() - 2] == '\\' &&
         (s.back() == 'n' || s.back() == 't')) {
    s.erase(s.size() - 2);
  }
  return s;
}

void extract_csv_literals(const SourceFile& f, RepoModel& model) {
  if (!starts_with(f.path, "bench/")) {
    return;
  }
  std::vector<ast::StringLit> lits = ast::string_literals(f);
  for (std::size_t i = 0; i < lits.size(); ++i) {
    int line = lits[i].line;
    std::string value =
        strip_edge_escapes(join_adjacent(lits, f.code_text, i));
    if (starts_with(value, "csv,")) {
      model.csv_literals.push_back(
          CsvLiteralModel{value, ModelSite{f.path, line}});
    }
  }
}

void extract_table_builds(const SourceFile& f, RepoModel& model) {
  if (!starts_with(f.path, "bench/") && !starts_with(f.path, "src/")) {
    return;
  }
  const std::string& text = f.code_text;
  std::vector<ast::StringLit> lits = ast::string_literals(f);
  for (const ast::Function& fn : ast::functions(f)) {
    // `Table name({...})` declarations inside this function.
    std::size_t pos = fn.body_open;
    while ((pos = text.find("Table", pos)) != std::string::npos &&
           pos < fn.body_close) {
      std::size_t at = pos;
      pos += 5;
      if ((at > 0 && ident_char(text[at - 1])) ||
          (at + 5 < text.size() && ident_char(text[at + 5]))) {
        continue;
      }
      std::size_t p = at + 5;
      while (p < text.size() && (text[p] == ' ' || text[p] == '\n')) {
        ++p;
      }
      std::size_t name_start = p;
      while (p < text.size() && ident_char(text[p])) {
        ++p;
      }
      if (p == name_start) {
        continue;
      }
      std::string var = text.substr(name_start, p - name_start);
      while (p < text.size() && (text[p] == ' ' || text[p] == '\n')) {
        ++p;
      }
      if (p >= text.size() || (text[p] != '(' && text[p] != '{')) {
        continue;
      }
      char open = text[p];
      char close_c = open == '(' ? ')' : '}';
      std::size_t close = ast::match_forward(text, p, open, close_c);
      if (close == std::string::npos || close > fn.body_close) {
        continue;
      }
      // The argument must itself be a brace list (of string literals).
      std::size_t q = p + 1;
      while (q < close && (text[q] == ' ' || text[q] == '\n')) {
        ++q;
      }
      std::size_t brace = open == '{' ? p : q;
      if (text[brace] != '{') {
        continue;  // dynamic headers (std::move(headers) etc.)
      }
      std::size_t brace_close = ast::match_forward(text, brace, '{', '}');
      if (brace_close == std::string::npos || brace_close > close) {
        continue;
      }
      TableBuildModel build;
      build.variable = var;
      build.site = ModelSite{f.path, f.line_of(at)};
      bool all_literals = true;
      for (std::size_t b = brace + 1; b < brace_close; ++b) {
        char c = text[b];
        if (ident_char(c)) {
          all_literals = false;  // computed header; not checkable
          break;
        }
      }
      if (!all_literals) {
        continue;
      }
      for (const ast::StringLit& lit : lits) {
        if (lit.offset > brace && lit.offset < brace_close) {
          ++build.header_count;
        }
      }
      if (build.header_count == 0) {
        continue;
      }
      // Single-statement `var.begin_row()....;` chains in the same function.
      std::size_t rpos = fn.body_open;
      const std::string needle = var + ".begin_row";
      while ((rpos = text.find(needle, rpos)) != std::string::npos &&
             rpos < fn.body_close) {
        std::size_t chain_at = rpos;
        rpos += needle.size();
        if (chain_at > 0 && ident_char(text[chain_at - 1])) {
          continue;
        }
        // Scan to the statement's ';' at top level.
        int depth = 0;
        std::size_t e = chain_at;
        for (; e < fn.body_close; ++e) {
          char c = text[e];
          if (c == '(' || c == '[' || c == '{') {
            ++depth;
          } else if (c == ')' || c == ']' || c == '}') {
            --depth;
          } else if (c == ';' && depth == 0) {
            break;
          }
        }
        std::string stmt = text.substr(chain_at, e - chain_at);
        int cells = 0;
        for (const std::string& adder :
             {std::string(".add_cell("), std::string(".add_num("),
              std::string(".add_int(")}) {
          std::size_t a = 0;
          while ((a = stmt.find(adder, a)) != std::string::npos) {
            ++cells;
            a += adder.size();
          }
        }
        if (cells == 0) {
          continue;  // row filled across statements; not checkable
        }
        build.rows.push_back(TableBuildModel::RowChain{
            cells, ModelSite{f.path, f.line_of(chain_at)}});
      }
      model.table_builds.push_back(std::move(build));
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
    extract_forks(f, model);
    extract_registrations(f, model);
    extract_csv_literals(f, model);
    extract_table_builds(f, model);
    model.include_edges += static_cast<int>(ast::includes(f).size());
  }
  model.docs_text = load_docs(root);
  return model;
}

}  // namespace hlslint
