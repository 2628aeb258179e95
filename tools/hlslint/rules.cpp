// Single-file rules: determinism bans, conventions, unordered-iteration
// heuristics, the callback-epoch capture check and the benches' time scale.
// Layering lives in graph.cpp because it needs the whole file set.
//
// Every matcher works on SourceFile::code / code_text, where comments and
// literal bodies are already blanked — a banned token quoted in a diagnostic
// string (or in this file's own rule tables) never fires.
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "hlslint/lint.hpp"

namespace hlslint {

namespace {

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// Finds `token` in `hay` at or after `from`, requiring that the character
/// before the match is not an identifier character (so `time(` does not fire
/// inside `next_time(`). The token itself may contain punctuation (`std::`).
std::size_t find_token(const std::string& hay, const std::string& token,
                       std::size_t from = 0) {
  std::size_t pos = from;
  while ((pos = hay.find(token, pos)) != std::string::npos) {
    if (pos == 0 || !ident_char(hay[pos - 1])) {
      return pos;
    }
    pos += 1;
  }
  return std::string::npos;
}

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t");
  if (a == std::string::npos) {
    return "";
  }
  std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

void add(std::vector<Finding>& out, const SourceFile& f, int line,
         const std::string& rule, const std::string& message) {
  out.push_back(Finding{f.path, line, rule, message});
}

/// Matching-bracket scan over code_text. `open_pos` indexes the opening
/// bracket; returns the offset of its match or npos.
std::size_t match_bracket(const std::string& text, std::size_t open_pos,
                          char open, char close) {
  int depth = 0;
  for (std::size_t i = open_pos; i < text.size(); ++i) {
    if (text[i] == open) {
      ++depth;
    } else if (text[i] == close) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return std::string::npos;
}

// ---- rule: pragma-once ---------------------------------------------------

void rule_pragma_once(const SourceFile& f, std::vector<Finding>& out) {
  if (!f.is_header) {
    return;
  }
  for (const std::string& line : f.code) {
    if (trim(line) == "#pragma once") {
      return;
    }
  }
  add(out, f, 1, "pragma-once", "header is missing #pragma once");
}

// ---- rule: hls-assert ----------------------------------------------------

void rule_hls_assert(const SourceFile& f, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    if (find_token(line, "assert(") != std::string::npos) {
      add(out, f, static_cast<int>(i) + 1, "hls-assert",
          "use HLS_ASSERT(expr, msg) instead of bare assert(): invariant "
          "checks must stay on in release builds");
    }
    std::string t = trim(line);
    if (starts_with(t, "#include") && (t.find("<cassert>") != std::string::npos ||
                                       t.find("<assert.h>") != std::string::npos)) {
      add(out, f, static_cast<int>(i) + 1, "hls-assert",
          "do not include <cassert>; util/assert.hpp provides HLS_ASSERT");
    }
  }
}

// ---- rule: wall-clock ----------------------------------------------------

bool wall_clock_scope(const std::string& path) {
  if (!(starts_with(path, "src/") || starts_with(path, "tests/") ||
        starts_with(path, "examples/"))) {
    return false;  // benches legitimately measure real CPU time
  }
  // util/ timing shims (a file named *time* or *clock* under src/util/) are
  // the one place allowed to touch host clocks.
  if (starts_with(path, "src/util/")) {
    std::string base = path.substr(path.rfind('/') + 1);
    if (base.find("time") != std::string::npos ||
        base.find("clock") != std::string::npos) {
      return false;
    }
  }
  return true;
}

void rule_wall_clock(const SourceFile& f, std::vector<Finding>& out) {
  if (!wall_clock_scope(f.path)) {
    return;
  }
  static const std::vector<std::string> kBanned = {
      "std::chrono::system_clock", "std::chrono::steady_clock",
      "std::chrono::high_resolution_clock",
      "clock_gettime(", "gettimeofday(", "time(", "clock(",
  };
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (const std::string& tok : kBanned) {
      if (find_token(f.code[i], tok) != std::string::npos) {
        add(out, f, static_cast<int>(i) + 1, "wall-clock",
            "wall-clock source breaks determinism: simulation code must use "
            "Simulator::now(); host timing belongs in bench/ or a util/ "
            "timing shim");
        break;  // one finding per line is enough
      }
    }
  }
}

// ---- rule: global-rng ----------------------------------------------------

void rule_global_rng(const SourceFile& f, std::vector<Finding>& out) {
  static const std::vector<std::string> kBanned = {
      "std::random_device", "std::mt19937",  "std::default_random_engine",
      "std::minstd_rand",   "rand(",         "srand(",
      "random_shuffle",
  };
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (const std::string& tok : kBanned) {
      if (find_token(line, tok) != std::string::npos) {
        add(out, f, static_cast<int>(i) + 1, "global-rng",
            "non-deterministic RNG: fork an hls::Rng stream from the config "
            "seed instead");
        break;
      }
    }
    std::string t = trim(line);
    if (starts_with(t, "#include") && t.find("<random>") != std::string::npos) {
      add(out, f, static_cast<int>(i) + 1, "global-rng",
          "do not include <random>; util/random.hpp provides the seeded, "
          "bit-stable generators");
    }
  }
}

// ---- rule: include-style -------------------------------------------------

void rule_include_style(const SourceFile& f, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    std::string t = trim(f.code[i]);
    if (!starts_with(t, "#include")) {
      continue;
    }
    if (t.find('"') == std::string::npos) {
      continue;  // system include
    }
    // The lexer blanks string bodies, so recover the path from `raw`.
    const std::string& rawline = f.raw[i];
    std::size_t q1 = rawline.find('"');
    std::size_t q2 = rawline.find('"', q1 + 1);
    if (q1 == std::string::npos || q2 == std::string::npos) {
      continue;
    }
    std::string inc = rawline.substr(q1 + 1, q2 - q1 - 1);
    if (inc.find("..") != std::string::npos) {
      add(out, f, static_cast<int>(i) + 1, "include-style",
          "parent-relative include; use a repo-relative path from src/");
      continue;
    }
    // Within src/, every quoted include must be repo-relative, i.e. start
    // with a known layer directory. Tests/benches/examples may also include
    // their own local helpers (bench_common.hpp), so only src/ is strict.
    if (starts_with(f.path, "src/") && layer_rank(inc) < 0) {
      add(out, f, static_cast<int>(i) + 1, "include-style",
          "non-repo-relative include \"" + inc +
              "\"; include as \"<layer>/<file>\" from src/");
    }
  }
}

// ---- rule: float-eq ------------------------------------------------------

/// True if a float literal (digits containing '.') ends at `pos` (exclusive),
/// scanning backwards over an optional f/F suffix.
bool float_literal_before(const std::string& s, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && s[i - 1] == ' ') {
    --i;
  }
  if (i > 0 && (s[i - 1] == 'f' || s[i - 1] == 'F')) {
    --i;
  }
  bool digits = false, dot = false;
  while (i > 0) {
    char c = s[i - 1];
    if (c >= '0' && c <= '9') {
      digits = true;
      --i;
    } else if (c == '.' && !dot) {
      dot = true;
      --i;
    } else {
      break;
    }
  }
  // Reject identifiers ending in digits (v2 == x) and member access (a.b).
  if (i > 0 && ident_char(s[i - 1])) {
    return false;
  }
  return digits && dot;
}

/// True if a float literal starts at `pos` (after skipping spaces).
bool float_literal_after(const std::string& s, std::size_t pos) {
  std::size_t i = pos;
  while (i < s.size() && s[i] == ' ') {
    ++i;
  }
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
    ++i;
  }
  bool digits = false;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    digits = true;
    ++i;
  }
  if (i >= s.size() || s[i] != '.') {
    return false;
  }
  ++i;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    digits = true;
    ++i;
  }
  return digits;
}

void rule_float_eq(const SourceFile& f, std::vector<Finding>& out) {
  if (!starts_with(f.path, "src/")) {
    return;  // tests pin exact values on purpose (EXPECT_NEAR etc. aside)
  }
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (std::size_t p = 0; p + 1 < line.size(); ++p) {
      bool eq = line[p] == '=' && line[p + 1] == '=';
      bool ne = line[p] == '!' && line[p + 1] == '=';
      if (!eq && !ne) {
        continue;
      }
      if (p > 0 && (line[p - 1] == '=' || line[p - 1] == '!' ||
                    line[p - 1] == '<' || line[p - 1] == '>')) {
        continue;  // ===, <=, >=, != already handled at their own p
      }
      if (p + 2 < line.size() && line[p + 2] == '=') {
        continue;
      }
      if (float_literal_before(line, p) || float_literal_after(line, p + 2)) {
        add(out, f, static_cast<int>(i) + 1, "float-eq",
            "floating-point equality comparison; compare against a tolerance "
            "or restructure to integer state");
        break;
      }
    }
  }
}

// ---- rule: unordered-iter ------------------------------------------------

/// Collects names declared in this file as std::unordered_* containers.
std::vector<std::string> unordered_names(const SourceFile& f) {
  std::vector<std::string> names;
  const std::string& text = f.code_text;
  std::size_t pos = 0;
  while ((pos = text.find("std::unordered_", pos)) != std::string::npos) {
    std::size_t lt = text.find('<', pos);
    if (lt == std::string::npos) {
      break;
    }
    std::size_t gt = lt;
    int depth = 0;
    for (; gt < text.size(); ++gt) {
      if (text[gt] == '<') {
        ++depth;
      } else if (text[gt] == '>') {
        if (--depth == 0) {
          break;
        }
      }
    }
    if (gt >= text.size()) {
      break;
    }
    std::size_t i = gt + 1;
    while (i < text.size() && (text[i] == ' ' || text[i] == '\n' ||
                               text[i] == '&' || text[i] == '*')) {
      ++i;
    }
    std::string name;
    while (i < text.size() && ident_char(text[i])) {
      name.push_back(text[i++]);
    }
    if (!name.empty()) {
      names.push_back(name);
    }
    pos = gt;
  }
  return names;
}

/// Tokens in a loop body that mean "this iteration order reaches the user".
bool body_feeds_output(const std::string& body) {
  static const std::vector<std::string> kSinks = {
      "printf", "fprintf", "print(", "write(", "emit", "<<", "row(", "csv",
      "sink",
  };
  for (const std::string& tok : kSinks) {
    if (body.find(tok) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// The receiver identifier of the first `X.push_back(` / `X.emplace_back(`
/// in a loop body — the vector whose later sort the rule must verify.
std::string collect_target(const std::string& body) {
  std::size_t best = std::string::npos;
  for (const std::string& call : {std::string(".push_back("),
                                  std::string(".emplace_back(")}) {
    std::size_t p = body.find(call);
    if (p != std::string::npos && p < best) {
      best = p;
    }
  }
  if (best == std::string::npos) {
    return "";
  }
  std::size_t end = best;
  std::size_t start = end;
  while (start > 0 && ident_char(body[start - 1])) {
    --start;
  }
  return body.substr(start, end - start);
}

void rule_unordered_iter(const SourceFile& f, std::vector<Finding>& out) {
  if (!starts_with(f.path, "src/")) {
    return;
  }
  std::vector<std::string> names = unordered_names(f);
  if (names.empty()) {
    return;
  }
  const std::string& text = f.code_text;
  std::size_t pos = 0;
  while ((pos = find_token(text, "for", pos)) != std::string::npos) {
    std::size_t paren = text.find_first_not_of(" \n", pos + 3);
    if (paren == std::string::npos || text[paren] != '(') {
      pos += 3;
      continue;
    }
    std::size_t close = match_bracket(text, paren, '(', ')');
    if (close == std::string::npos) {
      break;
    }
    // Range-for: a ':' at depth 1 that is not part of '::'.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = paren; i < close; ++i) {
      char c = text[i];
      if (c == '(' || c == '<' || c == '[') {
        ++depth;
      } else if (c == ')' || c == '>' || c == ']') {
        --depth;
      } else if (c == ':' && depth == 1) {
        if ((i > 0 && text[i - 1] == ':') || (i + 1 < close && text[i + 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
    }
    pos = close;
    if (colon == std::string::npos) {
      continue;
    }
    // The range expression's trailing identifier (handles this->m_, st.m_).
    std::string range = trim(text.substr(colon + 1, close - colon - 1));
    std::size_t end = range.size();
    while (end > 0 && !ident_char(range[end - 1])) {
      --end;  // trailing ')' of e.g. `.items()` — bail below if call
    }
    std::size_t start = end;
    while (start > 0 && ident_char(range[start - 1])) {
      --start;
    }
    std::string last_ident = range.substr(start, end - start);
    bool is_unordered = false;
    for (const std::string& n : names) {
      if (last_ident == n) {
        is_unordered = true;
        break;
      }
    }
    if (!is_unordered) {
      continue;
    }
    std::size_t brace = text.find('{', close);
    if (brace == std::string::npos) {
      continue;
    }
    std::size_t body_end = match_bracket(text, brace, '{', '}');
    if (body_end == std::string::npos) {
      continue;
    }
    std::string body = text.substr(brace, body_end - brace);
    int line = f.line_of(colon);
    if (body_feeds_output(body)) {
      add(out, f, line, "unordered-iter",
          "iteration over std::unordered_* feeds ordered output; collect "
          "keys, sort, then emit");
      continue;
    }
    // Collect idiom: fine only if the vector the loop appends to is itself
    // sorted before the enclosing function ends. v1 accepted any `sort(`
    // after the loop; now the sort's arguments must name that vector.
    std::string target = collect_target(body);
    if (target.empty()) {
      continue;
    }
    int fn_depth = 0;
    std::size_t scan = body_end + 1;  // start past the loop's closing brace
    std::size_t fn_end = text.size();
    for (; scan < text.size(); ++scan) {
      if (text[scan] == '{') {
        ++fn_depth;
      } else if (text[scan] == '}') {
        if (--fn_depth < 0) {
          fn_end = scan;
          break;
        }
      }
    }
    std::string after = text.substr(body_end, fn_end - body_end);
    bool sorted = false;
    std::size_t s = 0;
    while ((s = after.find("sort(", s)) != std::string::npos) {
      std::size_t close_s = match_bracket(after, s + 4, '(', ')');
      if (close_s == std::string::npos) {
        break;
      }
      std::string args = after.substr(s + 5, close_s - s - 5);
      if (find_token(args, target) != std::string::npos) {
        sorted = true;
        break;
      }
      s = close_s;
    }
    if (!sorted) {
      add(out, f, line, "unordered-iter",
          "vector '" + target +
              "' collected from std::unordered_* iteration is never "
              "sorted in this function; downstream order depends on hashing");
    }
  }
}

// ---- rule: callback-epoch ------------------------------------------------

/// A lambda's capture list and body, however the lambda reached the
/// schedule call (written inline or bound to a local name first).
struct LambdaText {
  std::string captures;
  std::string body;
};

/// Applies the epoch-capture contract to one lambda feeding a schedule
/// call anchored at `line`.
void analyze_scheduled_lambda(const SourceFile& f, const LambdaText& lam,
                              int line, std::vector<Finding>& out) {
  bool body_revalidates = find_token(lam.body, "find(") != std::string::npos;
  bool captures_epoch =
      find_token(lam.captures, "epoch") != std::string::npos;

  // Raw pointer capture: a bare `txn` token not part of `txn->...`.
  std::size_t t = 0;
  bool raw_txn = false;
  while ((t = find_token(lam.captures, "txn", t)) != std::string::npos) {
    std::size_t after = t + 3;
    bool member = after + 1 < lam.captures.size() &&
                  lam.captures[after] == '-' && lam.captures[after + 1] == '>';
    if (!member &&
        (after >= lam.captures.size() || !ident_char(lam.captures[after]))) {
      raw_txn = true;
    }
    t = after;
  }
  bool id_from_txn = lam.captures.find("txn->") != std::string::npos;

  if (raw_txn && !body_revalidates) {
    add(out, f, line, "callback-epoch",
        "scheduled lambda captures a raw Transaction*; capture "
        "(ticket = txn->ticket) and revalidate via arena_.find(ticket)");
  } else if (!raw_txn && id_from_txn && !captures_epoch && !body_revalidates) {
    add(out, f, line, "callback-epoch",
        "scheduled lambda captures transaction state without a ticket; "
        "the callback can fire after a rerun or after its slot is reused");
  }
}

/// Parses the lambda whose capture list opens at `text[lb]`. Returns false
/// when the brackets do not form a lambda shape.
bool parse_lambda_at(const std::string& text, std::size_t lb,
                     LambdaText& out) {
  std::size_t rb = match_bracket(text, lb, '[', ']');
  if (rb == std::string::npos) {
    return false;
  }
  std::size_t brace = text.find('{', rb);
  if (brace == std::string::npos) {
    return false;
  }
  std::size_t body_end = match_bracket(text, brace, '{', '}');
  if (body_end == std::string::npos) {
    return false;
  }
  out.captures = text.substr(lb + 1, rb - lb - 1);
  out.body = text.substr(brace, body_end - brace);
  return true;
}

/// Lambdas bound to local names (`auto cb = [...](...) {...};`) anywhere in
/// the file. Keyed by name so schedule calls passing `cb` / `std::move(cb)`
/// resolve to the lambda's captures — v1 only analyzed inline lambdas,
/// leaving named callbacks a false-negative window.
std::map<std::string, LambdaText> named_lambdas(const std::string& text) {
  std::map<std::string, LambdaText> named;
  std::size_t pos = 0;
  while ((pos = find_token(text, "auto", pos)) != std::string::npos) {
    std::size_t p = pos + 4;
    while (p < text.size() && (text[p] == ' ' || text[p] == '\n')) {
      ++p;
    }
    std::size_t name_start = p;
    while (p < text.size() && ident_char(text[p])) {
      ++p;
    }
    if (p == name_start) {
      pos += 4;
      continue;
    }
    std::string name = text.substr(name_start, p - name_start);
    while (p < text.size() && (text[p] == ' ' || text[p] == '\n')) {
      ++p;
    }
    if (p >= text.size() || text[p] != '=') {
      pos += 4;
      continue;
    }
    ++p;
    while (p < text.size() && (text[p] == ' ' || text[p] == '\n')) {
      ++p;
    }
    if (p >= text.size() || text[p] != '[') {
      pos += 4;
      continue;
    }
    LambdaText lam;
    if (parse_lambda_at(text, p, lam)) {
      named.emplace(std::move(name), std::move(lam));
    }
    pos += 4;
  }
  return named;
}

void rule_callback_epoch(const SourceFile& f, std::vector<Finding>& out) {
  if (!starts_with(f.path, "src/")) {
    return;
  }
  const std::string& text = f.code_text;
  std::map<std::string, LambdaText> named = named_lambdas(text);
  for (const std::string& call : {std::string("schedule_after("),
                                  std::string("schedule_at(")}) {
    std::size_t pos = 0;
    while ((pos = find_token(text, call, pos)) != std::string::npos) {
      std::size_t call_pos = pos;
      std::size_t paren = pos + call.size() - 1;
      std::size_t close = match_bracket(text, paren, '(', ')');
      pos = paren + 1;
      if (close == std::string::npos) {
        continue;
      }
      // Anchor findings on the schedule call, not the lambda's '[' (which
      // often lands on a continuation line).
      int line = f.line_of(call_pos);
      // First '[' inside the call is taken as an inline lambda's captures.
      std::size_t lb = text.find('[', paren);
      LambdaText lam;
      if (lb != std::string::npos && lb < close &&
          parse_lambda_at(text, lb, lam)) {
        analyze_scheduled_lambda(f, lam, line, out);
        continue;
      }
      // No inline lambda: resolve identifiers in the argument list against
      // the named lambdas of this file (`cb`, `std::move(cb)`).
      std::string args = text.substr(paren + 1, close - paren - 1);
      for (const auto& [name, bound] : named) {
        if (find_token(args, name) != std::string::npos) {
          analyze_scheduled_lambda(f, bound, line, out);
          break;
        }
      }
    }
  }
}

// ---- rule: bench-time-scale ----------------------------------------------

/// A bench reads its windows' scale through bench::scaled_options() or
/// time_scale_from_env(), which also reject a value that is not a finite
/// number above 0.
void rule_bench_time_scale(const SourceFile& f, std::vector<Finding>& out) {
  if (!starts_with(f.path, "bench/")) {
    return;
  }
  const std::size_t main_pos = find_token(f.code_text, "int main(");
  if (main_pos == std::string::npos ||
      find_token(f.code_text, "scaled_options") != std::string::npos ||
      find_token(f.code_text, "time_scale_from_env") != std::string::npos) {
    return;
  }
  add(out, f, f.line_of(main_pos), "bench-time-scale",
      "bench defines main() without honoring HLS_TIME_SCALE; call "
      "bench::scaled_options() (or time_scale_from_env()) so quick figure "
      "runs scale down");
}

}  // namespace

void check_text_rules(const SourceFile& f, std::vector<Finding>& out) {
  rule_pragma_once(f, out);
  rule_hls_assert(f, out);
  rule_wall_clock(f, out);
  rule_global_rng(f, out);
  rule_include_style(f, out);
  rule_float_eq(f, out);
  rule_unordered_iter(f, out);
  rule_callback_epoch(f, out);
  rule_bench_time_scale(f, out);
}

}  // namespace hlslint
