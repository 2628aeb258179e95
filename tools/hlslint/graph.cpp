// Include-graph rules: the documented layer order, cycle detection, and the
// header-only constraint on whitelisted cross-layer headers.
//
// The layer order is a link-time contract (hls_obs must not link hls_hybrid)
// so a handful of header-only leaf types — plain structs with no .cpp — are
// deliberately includable from any layer: that is how `obs` names
// Transaction and how `routing` sees Config without a dependency cycle.
// The whitelist below names them explicitly, and check_layering() verifies
// each one really has no sibling .cpp in the scanned set.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "hlslint/lint.hpp"

namespace hlslint {

namespace {

/// Documented order (CLAUDE.md): util < obs < sim < net/db < workload <
/// baseline/model < routing < hybrid < core. Equal ranks (net/db,
/// baseline/model) are sibling tiers that must not include each other.
const std::map<std::string, int>& ranks() {
  static const std::map<std::string, int> kRanks = {
      {"util", 0},     {"obs", 1},   {"sim", 2},      {"net", 3},
      {"db", 3},       {"workload", 4}, {"baseline", 5}, {"model", 5},
      {"routing", 6},  {"hybrid", 7},   {"core", 8},
  };
  return kRanks;
}

/// Layer directory of a path shaped `src/<layer>/...` or `<layer>/...`
/// (the latter is how include strings are written), or "" if none.
std::string layer_dir(const std::string& path) {
  std::string p = path;
  if (p.compare(0, 4, "src/") == 0) {
    p = p.substr(4);
  }
  std::size_t slash = p.find('/');
  if (slash == std::string::npos) {
    return "";
  }
  std::string dir = p.substr(0, slash);
  return ranks().count(dir) ? dir : "";
}

/// Quoted includes of a file, as written (repo-relative from src/).
std::vector<std::pair<int, std::string>> quoted_includes(const SourceFile& f) {
  std::vector<std::pair<int, std::string>> incs;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    std::size_t h = line.find("#include");
    if (h == std::string::npos ||
        line.find_first_not_of(" \t") != line.find('#')) {
      continue;
    }
    std::size_t q1 = line.find('"', h);
    if (q1 == std::string::npos) {
      continue;
    }
    // The lexer blanks string bodies, so recover the path from `raw`.
    const std::string& rawline = f.raw[i];
    std::size_t r1 = rawline.find('"');
    std::size_t r2 = rawline.find('"', r1 + 1);
    if (r1 == std::string::npos || r2 == std::string::npos) {
      continue;
    }
    incs.emplace_back(static_cast<int>(i) + 1,
                      rawline.substr(r1 + 1, r2 - r1 - 1));
  }
  return incs;
}

}  // namespace

int layer_rank(const std::string& rel_path) {
  std::string dir = layer_dir(rel_path);
  if (dir.empty()) {
    return -1;
  }
  return ranks().at(dir);
}

const std::set<std::string>& header_only_whitelist() {
  static const std::set<std::string> kWhitelist = {
      "hybrid/config.hpp",      // plain parameter struct, read by every layer
      "hybrid/transaction.hpp",  // plain record type, named by obs events
      "hybrid/txn_arena.hpp",    // pooled Transaction storage, baselines too
      "routing/strategy.hpp",    // strategy interface; breaks routing<->hybrid
  };
  return kWhitelist;
}

void check_layering(const std::vector<SourceFile>& files,
                    std::vector<Finding>& out) {
  // Scanned src/ files by their include-string spelling ("hybrid/config.hpp").
  std::map<std::string, const SourceFile*> by_inc_path;
  for (const SourceFile& f : files) {
    if (f.path.compare(0, 4, "src/") == 0) {
      by_inc_path[f.path.substr(4)] = &f;
    }
  }

  // Whitelisted headers must stay header-only: a sibling .cpp would turn the
  // "leaf type" into a real upward library dependency.
  for (const std::string& w : header_only_whitelist()) {
    std::string sibling = w.substr(0, w.size() - 4) + ".cpp";
    auto it = by_inc_path.find(sibling);
    if (it != by_inc_path.end()) {
      out.push_back(Finding{it->second->path, 1, "layer-order",
                            "whitelisted header-only exception " + w +
                                " must not grow a .cpp"});
    }
  }

  // Edge check + adjacency for the cycle pass.
  std::map<std::string, std::vector<std::string>> adj;  // src-relative paths
  for (const SourceFile& f : files) {
    if (f.path.compare(0, 4, "src/") != 0) {
      continue;
    }
    std::string from_dir = layer_dir(f.path);
    if (from_dir.empty()) {
      continue;
    }
    int from_rank = ranks().at(from_dir);
    for (const auto& [line, inc] : quoted_includes(f)) {
      std::string to_dir = layer_dir(inc);
      if (to_dir.empty()) {
        continue;  // include-style rule reports non-layer includes
      }
      if (by_inc_path.count(inc)) {
        adj[f.path.substr(4)].push_back(inc);
      }
      if (header_only_whitelist().count(inc)) {
        continue;
      }
      int to_rank = ranks().at(to_dir);
      if (to_rank > from_rank) {
        out.push_back(Finding{
            f.path, line, "layer-order",
            "layer '" + from_dir + "' must not include '" + inc +
                "' from higher layer '" + to_dir +
                "' (order: util < obs < sim < net/db < workload < "
                "baseline/model < routing < hybrid < core)"});
      } else if (to_rank == from_rank && to_dir != from_dir) {
        out.push_back(Finding{f.path, line, "layer-order",
                              "sibling layers '" + from_dir + "' and '" +
                                  to_dir + "' must not include each other"});
      }
    }
  }

  // File-level cycle detection (DFS, deterministic order). The layer check
  // already forbids upward edges outside the whitelist, but whitelisted
  // headers could in principle close a loop — and a cycle among same-layer
  // headers is always a bug.
  std::map<std::string, int> state;  // 0 unvisited, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::vector<std::string> cycle;

  struct Dfs {
    std::map<std::string, std::vector<std::string>>& adj;
    std::map<std::string, int>& state;
    std::vector<std::string>& stack;
    std::vector<std::string>& cycle;

    void run(const std::string& node) {
      if (!cycle.empty()) {
        return;
      }
      state[node] = 1;
      stack.push_back(node);
      for (const std::string& next : adj[node]) {
        if (!cycle.empty()) {
          break;
        }
        int s = state.count(next) ? state[next] : 0;
        if (s == 0) {
          run(next);
        } else if (s == 1) {
          auto it = std::find(stack.begin(), stack.end(), next);
          cycle.assign(it, stack.end());
          cycle.push_back(next);
        }
      }
      stack.pop_back();
      state[node] = 2;
    }
  } dfs{adj, state, stack, cycle};

  for (const auto& [node, edges] : adj) {
    (void)edges;
    if ((state.count(node) ? state[node] : 0) == 0) {
      dfs.run(node);
    }
    if (!cycle.empty()) {
      break;
    }
  }
  if (!cycle.empty()) {
    std::string path_str;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i != 0) {
        path_str += " -> ";
      }
      path_str += cycle[i];
    }
    out.push_back(Finding{"src/" + cycle.front(), 1, "layer-cycle",
                          "include cycle: " + path_str});
  }
}

}  // namespace hlslint
