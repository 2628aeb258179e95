// AST-lite extraction over blanked code text (see ast.hpp for the contract).
//
// The scanners here are statement machines, not grammars: they track
// bracket depth, split the text into '{'- or ';'-terminated statements,
// and classify each statement by shape. Preprocessor lines are dropped
// before scanning (a `#define F(x)` must not look like a function head),
// and every span is recovered with balanced-bracket matching so a
// misclassified statement skips cleanly instead of derailing the scan.
#include <cstddef>
#include <string>
#include <vector>

#include "hlslint/ast.hpp"

namespace hlslint::ast {

namespace {

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t\n");
  if (a == std::string::npos) {
    return "";
  }
  std::size_t b = s.find_last_not_of(" \t\n\r");
  return s.substr(a, b - a + 1);
}

/// 1-based line of `offset` given precomputed line-start offsets.
int line_at(const std::vector<std::size_t>& starts, std::size_t offset) {
  int lo = 0, hi = static_cast<int>(starts.size()) - 1;
  while (lo < hi) {
    int mid = (lo + hi + 1) / 2;
    if (starts[static_cast<std::size_t>(mid)] <= offset) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo + 1;
}

std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      starts.push_back(i + 1);
    }
  }
  return starts;
}

/// Last identifier chain (idents joined by ::, ., ->) ending at `end`
/// (exclusive) in `s`, skipping trailing whitespace. Returns only the
/// ident/:: part — 'obj.run' yields 'run', 'HybridSystem::run' yields the
/// whole chain.
std::string ident_chain_before(const std::string& s, std::size_t end) {
  std::size_t i = end;
  while (i > 0 && (s[i - 1] == ' ' || s[i - 1] == '\n' || s[i - 1] == '\t')) {
    --i;
  }
  std::size_t stop = i;
  while (i > 0 && (ident_char(s[i - 1]) || s[i - 1] == ':')) {
    --i;
  }
  std::string chain = s.substr(i, stop - i);
  // Strip a leading lone ':' (from a mis-split '::').
  while (!chain.empty() && chain.front() == ':') {
    chain.erase(chain.begin());
  }
  // Chains reached through '.' or '->' are member accesses; keep only the
  // trailing member name in that case (the caller wants the called name).
  return chain;
}

bool is_keyword(const std::string& tok) {
  static const std::vector<std::string> kKeywords = {
      "if", "for", "while", "switch", "catch", "return", "sizeof",
      "alignof", "decltype", "new", "delete", "co_await", "co_return",
      "static_assert", "throw", "assert",
  };
  for (const std::string& k : kKeywords) {
    if (tok == k) {
      return true;
    }
  }
  return false;
}

bool contains_word(const std::string& s, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    bool left = pos == 0 || !ident_char(s[pos - 1]);
    std::size_t after = pos + word.size();
    bool right = after >= s.size() || !ident_char(s[after]);
    if (left && right) {
      return true;
    }
    pos = after;
  }
  return false;
}

/// Offset of the first top-level '(' in `s` (paren/bracket/brace depth 0),
/// or npos. Used on statement heads, where '<' is not tracked.
std::size_t first_toplevel_paren(const std::string& s) {
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '(' && depth == 0) {
      return i;
    }
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
    }
  }
  return std::string::npos;
}

std::size_t first_toplevel_char(const std::string& s, char want) {
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == want && depth == 0) {
      // Reject compound operators around '=' (==, !=, <=, >=, +=, ...).
      if (want == '=') {
        char prev = i > 0 ? s[i - 1] : '\0';
        char next = i + 1 < s.size() ? s[i + 1] : '\0';
        if (next == '=' || prev == '=' || prev == '!' || prev == '<' ||
            prev == '>' || prev == '+' || prev == '-' || prev == '*' ||
            prev == '/' || prev == '|' || prev == '&' || prev == '^') {
          continue;
        }
      }
      return i;
    }
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
    }
  }
  return std::string::npos;
}

/// Is the '#'-started line a preprocessor directive line?
bool preprocessor_line(const std::string& line) {
  std::size_t first = line.find_first_not_of(" \t");
  return first != std::string::npos && line[first] == '#';
}

}  // namespace

std::size_t match_forward(const std::string& text, std::size_t open_pos,
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

std::vector<StringLit> string_literals(const SourceFile& f) {
  std::vector<StringLit> lits;
  std::size_t line_start = 0;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& code = f.code[i];
    const std::string& raw = f.raw[i];
    std::size_t col = 0;
    while ((col = code.find('"', col)) != std::string::npos) {
      std::size_t close = code.find('"', col + 1);
      if (close == std::string::npos) {
        break;  // literal continues past the line (raw string); skip it
      }
      StringLit lit;
      lit.line = static_cast<int>(i) + 1;
      lit.offset = line_start + col;
      if (close < raw.size()) {
        lit.value = raw.substr(col + 1, close - col - 1);
      }
      lits.push_back(std::move(lit));
      col = close + 1;
    }
    line_start += code.size() + 1;  // '\n'
  }
  return lits;
}

std::vector<std::pair<int, std::string>> includes(const SourceFile& f) {
  std::vector<std::pair<int, std::string>> incs;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    std::size_t h = line.find("#include");
    if (h == std::string::npos || line.find_first_not_of(" \t") != line.find('#')) {
      continue;
    }
    std::size_t q1 = line.find('"', h);
    std::size_t q2 = q1 == std::string::npos ? std::string::npos
                                             : line.find('"', q1 + 1);
    if (q1 == std::string::npos || q2 == std::string::npos) {
      continue;
    }
    const std::string& raw = f.raw[i];
    if (q2 <= raw.size()) {
      incs.emplace_back(static_cast<int>(i) + 1, raw.substr(q1 + 1, q2 - q1 - 1));
    }
  }
  return incs;
}

bool parse_check(const SourceFile& f, std::string* error) {
  // Bracket balance over non-preprocessor code lines. The lexer has already
  // blanked comments and literal bodies, so what remains must nest cleanly.
  std::vector<std::pair<char, int>> stack;  // (bracket, line)
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    if (preprocessor_line(line)) {
      continue;
    }
    for (char c : line) {
      if (c == '(' || c == '[' || c == '{') {
        stack.emplace_back(c, static_cast<int>(i) + 1);
      } else if (c == ')' || c == ']' || c == '}') {
        char want = c == ')' ? '(' : c == ']' ? '[' : '{';
        if (stack.empty() || stack.back().first != want) {
          if (error != nullptr) {
            *error = f.path + ":" + std::to_string(i + 1) +
                     ": unmatched '" + std::string(1, c) + "'";
          }
          return false;
        }
        stack.pop_back();
      }
    }
  }
  if (!stack.empty()) {
    if (error != nullptr) {
      *error = f.path + ":" + std::to_string(stack.back().second) +
               ": unclosed '" + std::string(1, stack.back().first) + "'";
    }
    return false;
  }
  return true;
}

namespace {

/// Statement machine shared by functions() and records(): walks code_text
/// outside function bodies, invoking `on_block` for every '{'-terminated
/// statement with the statement text and the '{' offset. The callback
/// returns the offset scanning should resume at (either just past the '{'
/// to descend into a transparent scope, or past the matching '}' to skip
/// an opaque one).
template <typename OnBlock>
void scan_statements(const SourceFile& f, OnBlock on_block) {
  const std::string& text = f.code_text;
  std::string stmt;
  std::size_t stmt_begin = 0;
  bool line_is_pp = false;
  std::size_t i = 0;
  auto reset = [&](std::size_t at) {
    stmt.clear();
    stmt_begin = at;
  };
  // Determine per-line preprocessor status as we go.
  std::size_t line_head = 0;
  auto compute_pp = [&](std::size_t pos) {
    std::size_t first = text.find_first_not_of(" \t", line_head);
    line_is_pp = first != std::string::npos && first < text.size() &&
                 text[first] == '#' && first <= pos;
  };
  compute_pp(0);
  while (i < text.size()) {
    char c = text[i];
    if (c == '\n') {
      line_head = i + 1;
      compute_pp(line_head);
      stmt.push_back(' ');
      ++i;
      continue;
    }
    if (line_is_pp) {
      ++i;
      continue;
    }
    if (c == ';') {
      reset(i + 1);
      ++i;
      continue;
    }
    if (c == '{') {
      std::size_t resume = on_block(stmt, stmt_begin, i);
      reset(resume);
      i = resume;
      continue;
    }
    if (c == '}') {
      reset(i + 1);
      ++i;
      continue;
    }
    if (stmt.empty() && (c == ' ' || c == '\t')) {
      stmt_begin = i + 1;
      ++i;
      continue;
    }
    stmt.push_back(c);
    ++i;
  }
}

/// True when the '{'-terminated statement opens a scope functions can live
/// in directly (namespace or record body).
bool transparent_scope(const std::string& stmt) {
  // Look past a leading `template <...>` head: `template <class T> void f()`
  // is a function, not a class scope.
  std::size_t from = 0;
  const std::size_t first = stmt.find_first_not_of(' ');
  if (first != std::string::npos && stmt.compare(first, 8, "template") == 0) {
    const std::size_t lt = stmt.find('<', first);
    const std::size_t gt =
        lt == std::string::npos ? lt : match_forward(stmt, lt, '<', '>');
    from = gt == std::string::npos ? 0 : gt + 1;
  }
  const std::string head = stmt.substr(from);
  return contains_word(head, "namespace") || contains_word(head, "struct") ||
         contains_word(head, "class") || contains_word(head, "union");
}

}  // namespace

std::vector<Function> functions(const SourceFile& f) {
  std::vector<Function> fns;
  const std::string& text = f.code_text;
  const std::vector<std::size_t> starts = line_starts(text);

  scan_statements(f, [&](const std::string& stmt, std::size_t stmt_begin,
                         std::size_t brace) -> std::size_t {
    if (transparent_scope(stmt)) {
      return brace + 1;
    }
    std::size_t close = match_forward(text, brace, '{', '}');
    std::size_t skip_to = close == std::string::npos ? brace + 1 : close + 1;

    // An initializer ('=' before the first top-level paren) is not a
    // function head — lambdas and aggregate initializers land here.
    std::size_t eq = first_toplevel_char(stmt, '=');
    std::size_t paren = first_toplevel_paren(stmt);
    if (paren == std::string::npos || (eq != std::string::npos && eq < paren)) {
      return skip_to;
    }
    std::string name = ident_chain_before(stmt, paren);
    if (name.empty() || is_keyword(name)) {
      return skip_to;
    }
    // Reject `enum class X : int {` shapes that slip past transparent_scope
    // (they never contain a paren, so this is belt-and-braces).
    std::size_t close_paren =
        match_forward(stmt, paren, '(', ')');
    if (close_paren == std::string::npos) {
      return skip_to;
    }
    Function fn;
    fn.name = name;
    fn.params = stmt.substr(paren + 1, close_paren - paren - 1);
    fn.body_open = brace;
    fn.body_close = close == std::string::npos ? text.size() - 1 : close;
    // Anchor the line on the name: offset of the paren within the statement
    // maps back into code_text via stmt_begin only approximately (newlines
    // were flattened to spaces, preserving length), which keeps the mapping
    // exact.
    fn.line = line_at(starts, stmt_begin + paren);
    fns.push_back(std::move(fn));
    return skip_to;
  });
  return fns;
}

std::vector<Record> records(const SourceFile& f) {
  std::vector<Record> recs;
  const std::string& text = f.code_text;
  const std::vector<std::size_t> starts = line_starts(text);

  scan_statements(f, [&](const std::string& stmt, std::size_t stmt_begin,
                         std::size_t brace) -> std::size_t {
    bool is_record = (contains_word(stmt, "struct") ||
                      contains_word(stmt, "class") ||
                      contains_word(stmt, "union")) &&
                     !contains_word(stmt, "enum");
    if (!is_record) {
      // Still descend into namespaces.
      return transparent_scope(stmt)
                 ? brace + 1
                 : (match_forward(text, brace, '{', '}') == std::string::npos
                        ? brace + 1
                        : match_forward(text, brace, '{', '}') + 1);
    }
    // Name: the identifier right after the struct/class keyword.
    std::size_t kw = stmt.find("struct");
    std::size_t kw_len = 6;
    std::size_t cls = stmt.find("class");
    if (kw == std::string::npos || (cls != std::string::npos && cls < kw)) {
      kw = cls;
      kw_len = 5;
    }
    std::size_t uni = stmt.find("union");
    if (kw == std::string::npos || (uni != std::string::npos && uni < kw)) {
      kw = uni;
      kw_len = 5;
    }
    std::size_t p = kw + kw_len;
    while (p < stmt.size() && !ident_char(stmt[p])) {
      ++p;
    }
    std::string name;
    while (p < stmt.size() && ident_char(stmt[p])) {
      name.push_back(stmt[p++]);
    }
    if (name == "alignas" || name.empty()) {
      return brace + 1;
    }
    Record r;
    r.name = name;
    r.body_open = brace;
    std::size_t close = match_forward(text, brace, '{', '}');
    r.body_close = close == std::string::npos ? text.size() - 1 : close;
    r.line = line_at(starts, stmt_begin + kw);
    recs.push_back(std::move(r));
    return brace + 1;  // records nest (Scope inside Registry)
  });
  return recs;
}

std::vector<Field> record_fields(const SourceFile& f, const Record& r) {
  std::vector<Field> fields;
  const std::string& text = f.code_text;
  const std::vector<std::size_t> starts = line_starts(text);
  if (r.body_open + 1 >= r.body_close) {
    return fields;
  }

  std::string stmt;
  std::size_t stmt_begin = r.body_open + 1;

  auto classify = [&](std::size_t end_offset) {
    std::string s = trim(stmt);
    stmt.clear();
    if (s.empty()) {
      return;
    }
    for (const char* kw : {"using", "friend", "static", "typedef", "template",
                           "enum", "struct", "class", "union", "operator",
                           "public", "private", "protected", "virtual",
                           "explicit"}) {
      if (contains_word(s, kw)) {
        return;
      }
    }
    std::size_t eq = first_toplevel_char(s, '=');
    std::string left = eq == std::string::npos ? s : trim(s.substr(0, eq));
    std::size_t paren = first_toplevel_paren(left);
    if (paren != std::string::npos) {
      return;  // method / function declaration
    }
    Field fld;
    std::size_t name_end = left.size();
    std::size_t bracket = first_toplevel_char(left, '[');
    // Attributes like [[nodiscard]] never make it here (those lines always
    // belong to method declarations, which the paren test rejects), so a
    // '[' in the left side is an array declarator.
    if (bracket != std::string::npos && bracket > 0) {
      fld.is_array = true;
      name_end = bracket;
    }
    // Strip a trailing brace-initializer: `Histogram h{...}` arrives as
    // `Histogram h` because the scanner consumes the block, so nothing to do.
    std::size_t i = name_end;
    while (i > 0 && !ident_char(left[i - 1])) {
      --i;
    }
    std::size_t stop = i;
    while (i > 0 && ident_char(left[i - 1])) {
      --i;
    }
    if (stop == i) {
      return;
    }
    fld.name = left.substr(i, stop - i);
    fld.type = trim(left.substr(0, i));
    if (fld.type.empty() || (fld.name[0] >= '0' && fld.name[0] <= '9')) {
      return;
    }
    fld.line = line_at(starts, stmt_begin);
    (void)end_offset;
    fields.push_back(std::move(fld));
  };

  std::size_t i = r.body_open + 1;
  while (i < r.body_close) {
    char c = text[i];
    if (c == ';') {
      classify(i);
      stmt_begin = i + 1;
      ++i;
      continue;
    }
    if (c == '{') {
      std::size_t close = match_forward(text, i, '{', '}');
      if (close == std::string::npos || close > r.body_close) {
        break;
      }
      bool method_body = first_toplevel_paren(stmt) != std::string::npos &&
                         first_toplevel_char(stmt, '=') == std::string::npos;
      bool nested_type = contains_word(stmt, "struct") ||
                         contains_word(stmt, "class") ||
                         contains_word(stmt, "union") ||
                         contains_word(stmt, "enum");
      if (method_body || nested_type) {
        // Inline method / nested type: its body (and any trailing ';' for a
        // nested type) is not a field; drop the whole statement.
        stmt.clear();
        stmt_begin = close + 1;
        i = close + 1;
        if (i < r.body_close && text[i] == ';') {
          stmt_begin = i + 1;
          ++i;
        }
        continue;
      }
      i = close + 1;
      continue;
    }
    if (c == ':' && (i + 1 >= text.size() || text[i + 1] != ':') &&
        (i == 0 || text[i - 1] != ':')) {
      // Access specifier (`public:`) — reset; bitfields do not occur here.
      std::string t = trim(stmt);
      if (t == "public" || t == "private" || t == "protected") {
        stmt.clear();
        stmt_begin = i + 1;
        ++i;
        continue;
      }
    }
    if (stmt.empty() && (c == ' ' || c == '\t' || c == '\n')) {
      stmt_begin = i + 1;
      ++i;
      continue;
    }
    stmt.push_back(c == '\n' ? ' ' : c);
    ++i;
  }
  return fields;
}

std::vector<Call> member_calls(const std::string& text,
                               const std::string& method) {
  std::vector<Call> calls;
  std::size_t pos = 0;
  while ((pos = text.find(method, pos)) != std::string::npos) {
    std::size_t name_pos = pos;
    pos += method.size();
    if (name_pos == 0 || ident_char(text[name_pos - 1]) ||
        (text[name_pos - 1] != '.' && text[name_pos - 1] != '>')) {
      continue;
    }
    if (text[name_pos - 1] == '>' &&
        (name_pos < 2 || text[name_pos - 2] != '-')) {
      continue;  // 'a > b' comparison, not '->'
    }
    std::size_t after = name_pos + method.size();
    while (after < text.size() && (text[after] == ' ' || text[after] == '\n')) {
      ++after;
    }
    if (after >= text.size() || text[after] != '(') {
      continue;
    }
    std::size_t close = match_forward(text, after, '(', ')');
    if (close == std::string::npos) {
      continue;
    }
    calls.push_back(Call{name_pos, after, close});
  }
  return calls;
}

std::vector<std::string> split_args(const std::string& args) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : args) {
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
    } else if (c == ',' && depth == 0) {
      out.push_back(trim(cur));
      cur.clear();
      continue;
    }
    cur.push_back(c);
  }
  std::string last = trim(cur);
  if (!last.empty() || !out.empty()) {
    if (!last.empty()) {
      out.push_back(last);
    }
  }
  return out;
}

}  // namespace hlslint::ast
