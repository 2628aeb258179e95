#include "json.hpp"

#include <cctype>
#include <cstdlib>

namespace hls {

namespace {

struct JsonParser {
  const std::string& text;
  std::size_t pos = 0;
  int depth = 0;  ///< containers open at pos
  std::string error;

  explicit JsonParser(const std::string& t) : text(t) {}

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  bool expect(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return fail("dangling escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            // Artifacts never emit \u escapes; decode the BMP code point
            // as-is so foreign documents at least round-trip structurally.
            if (pos + 4 > text.size()) return fail("short \\u escape");
            out->push_back('?');
            pos += 4;
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if ((c == '{' || c == '[') && depth == kMaxJsonDepth) {
      return fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                  " levels");
    }
    if (c == '{') {
      ++pos;
      out->kind = JsonValue::Kind::Object;
      skip_ws();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      ++depth;
      while (true) {
        std::string key;
        if (!parse_string(&key)) return false;
        if (!expect(':')) return false;
        JsonValue child;
        if (!parse_value(&child)) return false;
        out->object.emplace_back(std::move(key), std::move(child));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        --depth;
        return expect('}');
      }
    }
    if (c == '[') {
      ++pos;
      out->kind = JsonValue::Kind::Array;
      skip_ws();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      ++depth;
      while (true) {
        JsonValue child;
        if (!parse_value(&child)) return false;
        out->array.push_back(std::move(child));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        --depth;
        return expect(']');
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::String;
      return parse_string(&out->str);
    }
    if (text.compare(pos, 4, "true") == 0) {
      out->kind = JsonValue::Kind::Bool;
      out->boolean = true;
      pos += 4;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      out->kind = JsonValue::Kind::Bool;
      pos += 5;
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      out->kind = JsonValue::Kind::Null;
      pos += 4;
      return true;
    }
    // Number.
    char* end = nullptr;
    const double v = std::strtod(text.c_str() + pos, &end);
    if (end == text.c_str() + pos) return fail("bad token");
    out->kind = JsonValue::Kind::Number;
    out->number = v;
    pos = static_cast<std::size_t>(end - text.c_str());
    return true;
  }
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text, std::string* error) {
  JsonParser p(text);
  JsonValue v;
  if (!p.parse_value(&v)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) *error = "trailing garbage after JSON value";
    return std::nullopt;
  }
  return v;
}

}  // namespace hls
