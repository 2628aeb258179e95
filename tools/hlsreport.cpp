// hlsreport: run-artifact reporter and regression diff gate
// (docs/OBSERVABILITY.md "hlsreport").
//
// Loads one or two canonical run artifacts (core/artifact.hpp) — or any
// JSON document, nested objects flattened to dotted keys — and renders
// summaries or aligned numeric diffs. Subcommands:
//
//   gen <out.json> [key=value ...]  simulate the canonical reference run
//                                   (overridable via config key=value pairs)
//                                   and write its artifact to <out.json>;
//                                   a path that cannot be written is one
//                                   line naming it, exit status 2
//   show <a.json> [--top K]         one-artifact summary: run provenance,
//                                   headline metrics, per-resource table,
//                                   top-K hot lock buckets
//   diff <a.json> <b.json> [opts]   aligned delta table over the union of
//                                   numeric leaves; --gate exits non-zero
//                                   when any delta is out of tolerance
//   selftest                        in-memory parser / flatten / tolerance
//                                   checks (no simulation, no files)
//   selfcheck                       end to end: gen twice at the same seed
//                                   (byte-identical artifacts, zero-delta
//                                   self-diff) and once at another seed
//                                   (diff must report deltas)
//
// diff options:
//   --tol R          default relative tolerance (default 1e-9: artifacts
//                    from the same code + config must agree exactly)
//   --tol PREFIX=R   per-prefix tolerance override, repeatable; the longest
//                    matching prefix wins
//   --abs A          absolute floor: |delta| <= A always passes (default 0)
//   --top K          max rows printed (default 20, largest relative first)
//   --all            print every differing row, not just the top K
//   --gate           exit 1 when any delta exceeds its tolerance, or when a
//                    key exists on only one side
//   R and A are non-negative numbers and K is a positive whole number; any
//   other value is one line naming its flag, with the usage status 2.
//
// Exit codes: 0 ok, 1 gate violation / selfcheck failure, 2 usage or I/O
// error. Deterministic output: rows are sorted (by relative delta, then
// name) and all numbers printed with fixed formatting.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact.hpp"
#include "core/config_io.hpp"
#include "core/driver.hpp"
#include "json.hpp"
#include "routing/factory.hpp"
#include "util/table.hpp"

namespace {

using hls::JsonValue;
using hls::kMaxJsonDepth;
using hls::parse_json;

// ---------------------------------------------------------------------------
// Flattening: every numeric leaf becomes "<dotted.path>" -> value; strings
// land in a separate map (run provenance). Booleans flatten to 0/1.
// ---------------------------------------------------------------------------

struct FlatDoc {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

void flatten_into(const JsonValue& v, const std::string& path, FlatDoc* out) {
  switch (v.kind) {
    case JsonValue::Kind::Number:
      out->numbers[path] = v.number;
      break;
    case JsonValue::Kind::Bool:
      out->numbers[path] = v.boolean ? 1.0 : 0.0;
      break;
    case JsonValue::Kind::String:
      out->strings[path] = v.str;
      break;
    case JsonValue::Kind::Object:
      for (const auto& [key, child] : v.object) {
        flatten_into(child, path.empty() ? key : path + "." + key, out);
      }
      break;
    case JsonValue::Kind::Array:
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        flatten_into(v.array[i], path + "." + std::to_string(i), out);
      }
      break;
    case JsonValue::Kind::Null:
      break;
  }
}

std::optional<FlatDoc> load_document(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::string parse_error;
  const std::optional<JsonValue> root = parse_json(text, &parse_error);
  if (!root.has_value()) {
    if (error != nullptr) *error = path + ": " + parse_error;
    return std::nullopt;
  }
  FlatDoc doc;
  flatten_into(*root, "", &doc);
  return doc;
}

// ---------------------------------------------------------------------------
// Tolerances: a default plus per-prefix overrides (longest prefix wins).
// ---------------------------------------------------------------------------

struct Tolerances {
  double default_rel = 1e-9;
  double abs_floor = 0.0;
  std::vector<std::pair<std::string, double>> prefixes;

  [[nodiscard]] double rel_for(const std::string& name) const {
    std::size_t best_len = 0;
    double best = default_rel;
    for (const auto& [prefix, tol] : prefixes) {
      if (name.compare(0, prefix.size(), prefix) == 0 &&
          prefix.size() >= best_len) {
        best_len = prefix.size();
        best = tol;
      }
    }
    return best;
  }
};

struct DiffRow {
  std::string name;
  double a = 0.0;
  double b = 0.0;
  bool only_a = false;
  bool only_b = false;
  double rel = 0.0;  ///< |b-a| / max(|a|,|b|); 0 when equal
  bool violation = false;
};

std::vector<DiffRow> diff_documents(const FlatDoc& a, const FlatDoc& b,
                                    const Tolerances& tol) {
  std::vector<DiffRow> rows;
  auto ia = a.numbers.begin();
  auto ib = b.numbers.begin();
  while (ia != a.numbers.end() || ib != b.numbers.end()) {
    DiffRow row;
    if (ib == b.numbers.end() ||
        (ia != a.numbers.end() && ia->first < ib->first)) {
      row.name = ia->first;
      row.a = ia->second;
      row.only_a = true;
      row.rel = 1.0;
      row.violation = true;
      ++ia;
    } else if (ia == a.numbers.end() || ib->first < ia->first) {
      row.name = ib->first;
      row.b = ib->second;
      row.only_b = true;
      row.rel = 1.0;
      row.violation = true;
      ++ib;
    } else {
      row.name = ia->first;
      row.a = ia->second;
      row.b = ib->second;
      const double d = std::fabs(row.b - row.a);
      const double mag = std::max(std::fabs(row.a), std::fabs(row.b));
      row.rel = (d == 0.0 || mag == 0.0) ? 0.0 : d / mag;
      row.violation = d > tol.abs_floor && row.rel > tol.rel_for(row.name);
      ++ia;
      ++ib;
    }
    if (row.only_a || row.only_b || row.a != row.b) {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Output helpers.
// ---------------------------------------------------------------------------

void print_diff_table(const std::vector<DiffRow>& rows, std::size_t top,
                      bool all) {
  std::vector<const DiffRow*> order;
  order.reserve(rows.size());
  for (const DiffRow& r : rows) order.push_back(&r);
  std::sort(order.begin(), order.end(), [](const DiffRow* x, const DiffRow* y) {
    if (x->rel != y->rel) return x->rel > y->rel;
    return x->name < y->name;
  });
  const std::size_t limit = all ? order.size() : std::min(top, order.size());
  std::size_t width = 4;
  for (std::size_t i = 0; i < limit; ++i) {
    width = std::max(width, order[i]->name.size());
  }
  std::printf("%-*s %16s %16s %12s  %s\n", static_cast<int>(width), "name",
              "a", "b", "rel", "gate");
  for (std::size_t i = 0; i < limit; ++i) {
    const DiffRow& r = *order[i];
    char abuf[32];
    char bbuf[32];
    if (r.only_a) {
      std::snprintf(abuf, sizeof abuf, "%.9g", r.a);
      std::snprintf(bbuf, sizeof bbuf, "%s", "-");
    } else if (r.only_b) {
      std::snprintf(abuf, sizeof abuf, "%s", "-");
      std::snprintf(bbuf, sizeof bbuf, "%.9g", r.b);
    } else {
      std::snprintf(abuf, sizeof abuf, "%.9g", r.a);
      std::snprintf(bbuf, sizeof bbuf, "%.9g", r.b);
    }
    std::printf("%-*s %16s %16s %12.3e  %s\n", static_cast<int>(width),
                r.name.c_str(), abuf, bbuf, r.rel,
                r.violation ? "FAIL" : "ok");
  }
  if (!all && order.size() > limit) {
    std::printf("... %zu more differing rows (use --all)\n",
                order.size() - limit);
  }
}

/// Per-resource summary: one row per scope that registered cpu.util, pulling
/// the companion gauges when present.
void print_resource_table(const FlatDoc& doc) {
  const std::string kPrefix = "registry.time_weighted.";
  const std::string kSuffix = ".cpu.util.average";
  std::vector<std::string> scopes;
  for (const auto& [key, value] : doc.numbers) {
    (void)value;
    if (key.compare(0, kPrefix.size(), kPrefix) == 0 &&
        key.size() > kPrefix.size() + kSuffix.size() &&
        key.compare(key.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
            0) {
      scopes.push_back(key.substr(
          kPrefix.size(), key.size() - kPrefix.size() - kSuffix.size()));
    }
  }
  if (scopes.empty()) {
    std::printf("(no per-resource telemetry in this artifact)\n");
    return;
  }
  auto lookup = [&doc](const std::string& key) -> double {
    const auto it = doc.numbers.find(key);
    return it != doc.numbers.end() ? it->second : 0.0;
  };
  std::printf("%-10s %9s %9s %11s %11s %11s\n", "resource", "cpu.util",
              "cpu.queue", "lock.waitq", "io.flight", "link.flight");
  for (const std::string& scope : scopes) {
    const std::string tw = kPrefix + scope;
    const double link = lookup(tw + ".link.up.in_flight.average") +
                        lookup(tw + ".link.down.in_flight.average");
    std::printf("%-10s %9.4f %9.4f %11.4f %11.4f %11.4f\n", scope.c_str(),
                lookup(tw + ".cpu.util.average"),
                lookup(tw + ".cpu.queue.average"),
                lookup(tw + ".locks.wait_queue.average"),
                lookup(tw + ".io.in_flight.average"), link);
  }
}

/// Top-K lock-heat buckets across every scope, hottest first.
void print_hot_fragments(const FlatDoc& doc, std::size_t top) {
  const std::string kPrefix = "registry.counters.";
  const std::string kSuffix = ".value";
  const std::string kHeat = ".locks.heat.";
  std::vector<std::pair<double, std::string>> buckets;
  for (const auto& [key, value] : doc.numbers) {
    if (key.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    if (key.size() <= kSuffix.size() ||
        key.compare(key.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    const std::string name =
        key.substr(kPrefix.size(), key.size() - kPrefix.size() - kSuffix.size());
    if (name.find(kHeat) == std::string::npos) continue;
    buckets.emplace_back(value, name);
  }
  if (buckets.empty()) {
    std::printf("(no lock-heat counters in this artifact)\n");
    return;
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const auto& x, const auto& y) {
              if (x.first != y.first) return x.first > y.first;
              return x.second < y.second;
            });
  const std::size_t limit = std::min(top, buckets.size());
  std::printf("%-32s %12s\n", "hot lock bucket", "accesses");
  for (std::size_t i = 0; i < limit; ++i) {
    std::printf("%-32s %12.0f\n", buckets[i].second.c_str(), buckets[i].first);
  }
}

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(
      stderr,
      "usage: hlsreport gen <out.json> [key=value ...]\n"
      "       hlsreport show <a.json> [--top K]\n"
      "       hlsreport diff <a.json> <b.json> [--tol R | --tol PREFIX=R]...\n"
      "                 [--abs A] [--top K] [--all] [--gate]\n"
      "       hlsreport selftest | selfcheck\n");
  return 2;
}

/// The canonical reference configuration behind `gen` (and the committed
/// scripts/artifact_baseline.json): moderate load, telemetry + heat armed,
/// the adaptive headline strategy, paper-scale windows under HLS_TIME_SCALE.
int cmd_gen(const std::string& out_path,
            const std::vector<std::string>& overrides) {
  hls::SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 42;
  cfg.obs_sample_interval = 0.5;
  cfg.obs_resource_telemetry = true;
  cfg.obs_heat_buckets = 32;
  for (const std::string& kv : overrides) {
    std::string error;
    if (!hls::apply_config_override(cfg, kv, &error)) {
      std::fprintf(stderr, "hlsreport gen: %s\n", error.c_str());
      return 2;
    }
  }
  if (const std::optional<std::string> problem = cfg.check()) {
    std::fprintf(stderr, "hlsreport gen: %s\n", problem->c_str());
    return 2;
  }
  const double scale = hls::time_scale_from_env();
  hls::RunOptions opt;
  opt.warmup_seconds = 200.0 * scale;
  opt.measure_seconds = 1200.0 * scale;
  const hls::StrategySpec spec =
      hls::parse_strategy_spec("min-average-nsys").value();
  const hls::RunResult result = hls::run_simulation(cfg, spec, opt);
  if (!hls::write_run_artifact_file(out_path, result)) {
    std::fprintf(stderr, "hlsreport gen: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("hlsreport gen: wrote %s (%zu metrics)\n", out_path.c_str(),
              result.registry.size());
  return 0;
}

int cmd_show(const std::string& path, std::size_t top) {
  std::string error;
  const std::optional<FlatDoc> doc = load_document(path, &error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "hlsreport show: %s\n", error.c_str());
    return 2;
  }
  std::printf("artifact: %s\n", path.c_str());
  for (const auto& [key, value] : doc->strings) {
    if (key == "schema" || key.compare(0, 4, "run.") == 0) {
      std::printf("  %-24s %s\n", key.c_str(), value.c_str());
    }
  }
  for (const char* key :
       {"run.seed", "run.num_sites", "run.arrival_rate_per_site",
        "run.window_seconds"}) {
    const auto it = doc->numbers.find(key);
    if (it != doc->numbers.end()) {
      std::printf("  %-24s %.6g\n", key, it->second);
    }
  }
  std::printf("\nheadline metrics\n");
  for (const char* key :
       {"registry.stats.rt.all.mean", "registry.stats.rt.all.count",
        "registry.counters.txn.completions.value",
        "registry.counters.txn.reruns.value",
        "registry.stats.wasted.per_txn.mean"}) {
    const auto it = doc->numbers.find(key);
    if (it != doc->numbers.end()) {
      std::printf("  %-44s %.6g\n", key, it->second);
    }
  }
  std::printf("\nper-resource telemetry\n");
  print_resource_table(*doc);
  std::printf("\n");
  print_hot_fragments(*doc, top);
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b,
             const Tolerances& tol, std::size_t top, bool all, bool gate) {
  std::string error;
  const std::optional<FlatDoc> a = load_document(path_a, &error);
  if (!a.has_value()) {
    std::fprintf(stderr, "hlsreport diff: %s\n", error.c_str());
    return 2;
  }
  const std::optional<FlatDoc> b = load_document(path_b, &error);
  if (!b.has_value()) {
    std::fprintf(stderr, "hlsreport diff: %s\n", error.c_str());
    return 2;
  }
  const std::vector<DiffRow> rows = diff_documents(*a, *b, tol);
  std::size_t violations = 0;
  for (const DiffRow& r : rows) {
    if (r.violation) ++violations;
  }
  if (rows.empty()) {
    std::printf("hlsreport diff: no differing numeric leaves (%zu compared)\n",
                a->numbers.size());
  } else {
    print_diff_table(rows, top, all);
    std::printf("hlsreport diff: %zu differing rows, %zu out of tolerance\n",
                rows.size(), violations);
  }
  if (gate && violations > 0) {
    std::fprintf(stderr, "hlsreport diff --gate: FAILED (%zu violations)\n",
                 violations);
    return 1;
  }
  return 0;
}

#define HLSREPORT_CHECK(cond)                                               \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "selftest FAILED at %s:%d: %s\n", __FILE__,      \
                   __LINE__, #cond);                                        \
      return 1;                                                             \
    }                                                                       \
  } while (0)

int cmd_selftest() {
  // Parser + flatten over a representative document.
  const std::string text =
      "{\"schema\":\"hls-run-artifact-v1\",\"run\":{\"seed\":42,"
      "\"strategy\":\"adapt:min-average-nsys\",\"ok\":true},"
      "\"registry\":{\"counters\":{\"a.b\":{\"unit\":\"count\","
      "\"value\":3}},\"bins\":[1,2.5,-4e-2]}}";
  std::string error;
  const std::optional<JsonValue> root = parse_json(text, &error);
  HLSREPORT_CHECK(root.has_value());
  FlatDoc doc;
  flatten_into(*root, "", &doc);
  HLSREPORT_CHECK(doc.numbers.at("run.seed") == 42.0);
  HLSREPORT_CHECK(doc.numbers.at("run.ok") == 1.0);
  HLSREPORT_CHECK(doc.numbers.at("registry.counters.a.b.value") == 3.0);
  HLSREPORT_CHECK(doc.numbers.at("registry.bins.2") == -4e-2);
  HLSREPORT_CHECK(doc.strings.at("run.strategy") == "adapt:min-average-nsys");

  // Escapes round-trip; malformed documents are rejected, not crashed on.
  const std::optional<JsonValue> esc =
      parse_json("{\"k\":\"a\\\"b\\\\c\\nd\"}", &error);
  HLSREPORT_CHECK(esc.has_value());
  HLSREPORT_CHECK(esc->object.at(0).second.str == "a\"b\\c\nd");
  HLSREPORT_CHECK(!parse_json("{\"k\":}", &error).has_value());
  HLSREPORT_CHECK(!parse_json("{} trailing", &error).has_value());

  // Nesting is capped, so a deep document is an error, not a stack overflow.
  const auto nested = [](int levels) {
    return std::string(static_cast<std::size_t>(levels), '[') +
           std::string(static_cast<std::size_t>(levels), ']');
  };
  HLSREPORT_CHECK(parse_json(nested(kMaxJsonDepth), &error).has_value());
  HLSREPORT_CHECK(!parse_json(nested(kMaxJsonDepth + 1), &error).has_value());
  HLSREPORT_CHECK(error.find("nesting deeper than 256 levels") !=
                  std::string::npos);
  HLSREPORT_CHECK(!parse_json(std::string(50000, '['), &error).has_value());

  // Diff: identical docs produce no rows; a changed value produces one; a
  // key on one side is always a violation.
  FlatDoc a;
  a.numbers = {{"x", 1.0}, {"y", 100.0}, {"z", 0.0}};
  FlatDoc b = a;
  Tolerances tol;
  HLSREPORT_CHECK(diff_documents(a, b, tol).empty());
  b.numbers["y"] = 101.0;
  std::vector<DiffRow> rows = diff_documents(a, b, tol);
  HLSREPORT_CHECK(rows.size() == 1 && rows[0].name == "y");
  HLSREPORT_CHECK(rows[0].violation);
  tol.prefixes.emplace_back("y", 0.02);
  rows = diff_documents(a, b, tol);
  HLSREPORT_CHECK(rows.size() == 1 && !rows[0].violation);
  b.numbers.erase("x");
  rows = diff_documents(a, b, tol);
  HLSREPORT_CHECK(rows.size() == 2 && rows[0].only_a && rows[0].violation);

  // Longest-prefix tolerance wins; the absolute floor silences tiny deltas.
  Tolerances t2;
  t2.default_rel = 0.0;
  t2.prefixes.emplace_back("m", 0.5);
  t2.prefixes.emplace_back("m.n", 0.001);
  HLSREPORT_CHECK(t2.rel_for("m.other") == 0.5);
  HLSREPORT_CHECK(t2.rel_for("m.n.deep") == 0.001);
  HLSREPORT_CHECK(t2.rel_for("q") == 0.0);
  FlatDoc c;
  c.numbers = {{"q", 1.0}};
  FlatDoc d;
  d.numbers = {{"q", 1.0 + 1e-12}};
  t2.abs_floor = 1e-9;
  HLSREPORT_CHECK(!diff_documents(c, d, t2)[0].violation);

  std::printf("hlsreport selftest: all checks passed\n");
  return 0;
}

int cmd_selfcheck() {
  // End to end through real simulations: same-seed artifacts must be
  // byte-identical and self-diff to zero rows; a different seed must diff.
  const std::string a = "hlsreport_selfcheck_a.json";
  const std::string b = "hlsreport_selfcheck_b.json";
  const std::string c = "hlsreport_selfcheck_c.json";
  if (cmd_gen(a, {}) != 0) return 1;
  if (cmd_gen(b, {}) != 0) return 1;
  if (cmd_gen(c, {"seed=43"}) != 0) return 1;

  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string bytes_a = slurp(a);
  HLSREPORT_CHECK(!bytes_a.empty());
  HLSREPORT_CHECK(bytes_a == slurp(b));

  std::string error;
  const std::optional<FlatDoc> doc_a = load_document(a, &error);
  const std::optional<FlatDoc> doc_c = load_document(c, &error);
  HLSREPORT_CHECK(doc_a.has_value() && doc_c.has_value());
  const Tolerances tol;
  HLSREPORT_CHECK(diff_documents(*doc_a, *doc_a, tol).empty());
  const std::vector<DiffRow> cross = diff_documents(*doc_a, *doc_c, tol);
  HLSREPORT_CHECK(!cross.empty());

  // The artifact carries the telemetry the canonical config arms.
  HLSREPORT_CHECK(doc_a->numbers.count(
                      "registry.time_weighted.central.cpu.util.average") == 1);
  HLSREPORT_CHECK(doc_a->numbers.count(
                      "registry.counters.central.locks.heat.0.value") == 1);
  HLSREPORT_CHECK(doc_a->strings.at("schema") == hls::kRunArtifactSchema);

  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(c.c_str());
  std::printf("hlsreport selfcheck: all checks passed\n");
  return 0;
}

/// --top's value: a positive whole number.
std::optional<std::size_t> parse_top(const std::string& text) {
  const std::optional<std::uint64_t> v = hls::parse_uint64(text);
  if (!v.has_value() || *v == 0) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

/// --tol's and --abs's values: a non-negative, finite number.
std::optional<double> parse_tolerance(const std::string& text) {
  const std::optional<double> v = hls::parse_number(text);
  if (!v.has_value() || !hls::kNonNegative.allows(*v)) return std::nullopt;
  return v;
}

constexpr const char* kTopNeed = "a positive whole number";
constexpr const char* kTolNeed = "a non-negative, finite number";

/// The one line for a flag value its parser rejected; the usage status.
int bad_value(const char* flag, const std::string& text, const char* need) {
  std::fprintf(stderr, "hlsreport: %s '%s': must be %s\n", flag, text.c_str(),
               need);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);

  if (cmd == "selftest") return cmd_selftest();
  if (cmd == "selfcheck") return cmd_selfcheck();

  if (cmd == "gen") {
    if (args.empty()) return usage();
    return cmd_gen(args[0], {args.begin() + 1, args.end()});
  }

  if (cmd == "show") {
    if (args.empty()) return usage();
    std::size_t top = 10;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--top" && i + 1 < args.size()) {
        const std::optional<std::size_t> v = parse_top(args[++i]);
        if (!v.has_value()) return bad_value("--top", args[i], kTopNeed);
        top = *v;
      } else {
        return usage();
      }
    }
    return cmd_show(args[0], top);
  }

  if (cmd == "diff") {
    if (args.size() < 2) return usage();
    Tolerances tol;
    std::size_t top = 20;
    bool all = false;
    bool gate = false;
    for (std::size_t i = 2; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a == "--tol" && i + 1 < args.size()) {
        const std::string v = args[++i];
        const std::size_t eq = v.find('=');
        const std::string text = eq == std::string::npos ? v : v.substr(eq + 1);
        const std::optional<double> rel = parse_tolerance(text);
        if (!rel.has_value()) return bad_value("--tol", v, kTolNeed);
        if (eq == std::string::npos) {
          tol.default_rel = *rel;
        } else {
          tol.prefixes.emplace_back(v.substr(0, eq), *rel);
        }
      } else if (a == "--abs" && i + 1 < args.size()) {
        const std::optional<double> v = parse_tolerance(args[++i]);
        if (!v.has_value()) return bad_value("--abs", args[i], kTolNeed);
        tol.abs_floor = *v;
      } else if (a == "--top" && i + 1 < args.size()) {
        const std::optional<std::size_t> v = parse_top(args[++i]);
        if (!v.has_value()) return bad_value("--top", args[i], kTopNeed);
        top = *v;
      } else if (a == "--all") {
        all = true;
      } else if (a == "--gate") {
        gate = true;
      } else {
        return usage();
      }
    }
    return cmd_diff(args[0], args[1], tol, top, all, gate);
  }

  return usage();
}
