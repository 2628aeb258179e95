// Cross-artifact contract rules over the repo model (model.hpp). Each rule
// fires only when the model's anchor artifacts exist in the scanned tree,
// so fixture trees exercising one contract stay silent on the others.
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
  rule_registry_unit(model, out);
  rule_bench_time_scale(files, out);
}

}  // namespace hlslint
