// Cross-artifact contract rules over the repo model (model.hpp). Each rule
// fires only when the model's anchor artifacts exist in the scanned tree,
// so fixture trees exercising one contract stay silent on the others.
#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hlslint/ast.hpp"
#include "hlslint/model.hpp"

namespace hlslint {

namespace {

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool contains_word(const std::string& text, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    bool left = pos == 0 || !ident_char(text[pos - 1]);
    std::size_t after = pos + word.size();
    bool right = after >= text.size() || !ident_char(text[after]);
    if (left && right) {
      return true;
    }
    pos = after;
  }
  return false;
}

void add(std::vector<Finding>& out, const ModelSite& site,
         const std::string& rule, std::string message) {
  out.push_back(Finding{site.file, site.line, rule, std::move(message)});
}

// ---- config-roundtrip ----------------------------------------------------
//
// Config text is parsed and described by walking one key list
// (for_each_config_key), so parse and serialize cannot drift apart. What can
// drift: a scalar SystemConfig field with no list entry (text cannot set
// it, and a described run silently drops it), and a key the Markdown docs
// never mention.
void rule_config_roundtrip(const RepoModel& m, std::vector<Finding>& out) {
  if (!m.has_config_struct || !m.has_config_keys) {
    return;
  }
  std::set<std::string> listed;
  for (const ConfigKeyModel& k : m.config_keys) {
    listed.insert(k.field);
  }
  for (const ConfigFieldModel& f : m.config_fields) {
    // Aggregate members (vectors, nested *Config structs) are configured
    // through their own scalar keys, not one key per field.
    if (f.type.find("vector") != std::string::npos ||
        ends_with(f.type, "Config")) {
      continue;
    }
    if (!listed.count(f.name)) {
      add(out, f.site, "config-roundtrip",
          "config field '" + f.name +
              "' has no entry in the config key list (for_each_config_key); "
              "every scalar SystemConfig field must round-trip through "
              "config text");
    }
  }
  if (!m.docs_text.empty()) {
    for (const ConfigKeyModel& k : m.config_keys) {
      if (!m.documented(k.key)) {
        add(out, k.site, "config-roundtrip",
            "config key '" + k.key +
                "' is not documented in any Markdown file; add it to the "
                "docs/CONFIG.md key catalogue");
      }
    }
  }
}

// ---- fork-label-unique ---------------------------------------------------
//
// RNG streams forked under duplicate labels silently correlate streams the
// code presents as independent; unlabeled forks in src/ hide stream
// identity from review.
void rule_fork_label_unique(const RepoModel& m, std::vector<Finding>& out) {
  std::map<std::string, const ForkSiteModel*> first;
  for (const ForkSiteModel& fk : m.forks) {
    if (!starts_with(fk.site.file, "src/")) {
      continue;
    }
    if (!fk.labeled) {
      add(out, fk.site, "fork-label-unique",
          "unlabeled Rng::fork() in src/; pass a unique stream label "
          "(doc-only: fork(\"label\") draws the same stream) so stream "
          "identity is reviewable");
      continue;
    }
    auto [it, inserted] = first.emplace(fk.label, &fk);
    if (!inserted) {
      std::ostringstream msg;
      msg << "duplicate fork label \"" << fk.label << "\" (first used at "
          << it->second->site.file << ":" << it->second->site.line
          << "); duplicate labels mark streams as related when the code "
             "treats them as independent";
      add(out, fk.site, "fork-label-unique", msg.str());
    }
  }
}

// ---- registry-unit -------------------------------------------------------
//
// The same instrument name must carry the same unit tag at every
// registration site, or downstream tooling aggregates incompatible series.
void rule_registry_unit(const RepoModel& m, std::vector<Finding>& out) {
  std::map<std::string, const RegistrationModel*> first;
  for (const RegistrationModel& reg : m.registrations) {
    auto [it, inserted] = first.emplace(reg.name, &reg);
    if (!inserted && it->second->unit != reg.unit) {
      std::ostringstream msg;
      msg << "instrument '" << reg.name << "' registered with unit '"
          << reg.unit << "' here but '" << it->second->unit << "' at "
          << it->second->site.file << ":" << it->second->site.line
          << "; the same name must mean the same unit everywhere";
      add(out, reg.site, "registry-unit", msg.str());
    }
  }
}

// ---- bench-csv-schema ----------------------------------------------------
//
// `csv,`-prefixed printf literals: the %-free header for a tag declares the
// column arity; every %-bearing row for that tag must match it. Same for
// literal-header Table builds vs their begin_row() cell chains.
std::vector<std::string> split_fields(const std::string& s) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ',') {
      fields.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

void rule_bench_csv_schema(const RepoModel& m, std::vector<Finding>& out) {
  // Group the literals per file and per tag (the second comma field).
  struct Group {
    const CsvLiteralModel* header = nullptr;
    int header_fields = 0;
  };
  std::map<std::pair<std::string, std::string>, Group> groups;
  for (const CsvLiteralModel& lit : m.csv_literals) {
    if (lit.text.find('%') != std::string::npos) {
      continue;
    }
    std::vector<std::string> fields = split_fields(lit.text);
    if (fields.size() < 2) {
      continue;
    }
    auto key = std::make_pair(lit.site.file, fields[1]);
    auto [it, inserted] = groups.emplace(key, Group{&lit, (int)fields.size()});
    if (!inserted && it->second.header_fields != (int)fields.size()) {
      std::ostringstream msg;
      msg << "csv header for tag '" << fields[1] << "' declares "
          << fields.size() << " fields but the header at "
          << it->second.header->site.file << ":"
          << it->second.header->site.line << " declares "
          << it->second.header_fields << "; one tag, one schema";
      add(out, lit.site, "bench-csv-schema", msg.str());
    }
  }
  for (const CsvLiteralModel& lit : m.csv_literals) {
    if (lit.text.find('%') == std::string::npos) {
      continue;
    }
    std::vector<std::string> fields = split_fields(lit.text);
    if (fields.size() < 2 || fields[1].find('%') != std::string::npos) {
      continue;  // tag not a literal; not checkable
    }
    auto it = groups.find(std::make_pair(lit.site.file, fields[1]));
    if (it == groups.end()) {
      add(out, lit.site, "bench-csv-schema",
          "csv row for tag '" + fields[1] +
              "' has no %-free header literal in this file; emit the "
              "header once so downstream parsers know the schema");
      continue;
    }
    if ((int)fields.size() != it->second.header_fields) {
      std::ostringstream msg;
      msg << "csv row for tag '" << fields[1] << "' has " << fields.size()
          << " fields but the header at " << it->second.header->site.file
          << ":" << it->second.header->site.line << " declares "
          << it->second.header_fields;
      add(out, lit.site, "bench-csv-schema", msg.str());
    }
  }
  for (const TableBuildModel& t : m.table_builds) {
    for (const TableBuildModel::RowChain& row : t.rows) {
      if (row.cells != t.header_count) {
        std::ostringstream msg;
        msg << "table row adds " << row.cells << " cells but '" << t.variable
            << "' declares " << t.header_count << " headers at " << t.site.file
            << ":" << t.site.line;
        add(out, row.site, "bench-csv-schema", msg.str());
      }
    }
  }
}

// ---- bench-time-scale ----------------------------------------------------
//
// Every bench with a main() must honor HLS_TIME_SCALE (via
// bench::scaled_options()/time_scale_from_env() or reading the variable
// directly), or quick-scale CI runs silently run it at full length.
void rule_bench_time_scale(const std::vector<SourceFile>& files,
                           std::vector<Finding>& out) {
  for (const SourceFile& f : files) {
    if (!starts_with(f.path, "bench/")) {
      continue;
    }
    const ast::Function* main_fn = nullptr;
    std::vector<ast::Function> fns = ast::functions(f);
    for (const ast::Function& fn : fns) {
      if (fn.name == "main") {
        main_fn = &fn;
        break;
      }
    }
    if (main_fn == nullptr) {
      continue;
    }
    bool honors = contains_word(f.code_text, "time_scale_from_env") ||
                  contains_word(f.code_text, "scaled_options");
    if (!honors) {
      for (const ast::StringLit& lit : ast::string_literals(f)) {
        if (lit.value == "HLS_TIME_SCALE") {
          honors = true;
          break;
        }
      }
    }
    if (!honors) {
      out.push_back(Finding{
          f.path, main_fn->line, "bench-time-scale",
          "bench defines main() without honoring HLS_TIME_SCALE; call "
          "bench::scaled_options() (or time_scale_from_env()) so quick "
          "figure runs scale down"});
    }
  }
}

}  // namespace

void check_model_rules(const RepoModel& model,
                       const std::vector<SourceFile>& files,
                       std::vector<Finding>& out) {
  rule_config_roundtrip(model, out);
  rule_fork_label_unique(model, out);
  rule_registry_unit(model, out);
  rule_bench_csv_schema(model, out);
  rule_bench_time_scale(files, out);
}

}  // namespace hlslint
