// Minimal JSON reader: just enough for run artifacts (hlsreport) and the
// Perfetto export's structural checks (span_trace_test). Numbers parse to
// double; objects keep their keys in document order.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hls {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Object, Array };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order
  std::vector<JsonValue> array;
};

/// Containers nest at most this deep. Run artifacts nest 5 deep; the cap
/// keeps parse_value's recursion, and the stack, bounded on any input.
constexpr int kMaxJsonDepth = 256;

/// Parses one JSON document. On failure returns nullopt and, when `error` is
/// non-null, stores a one-line reason with the offset where parsing stopped.
std::optional<JsonValue> parse_json(const std::string& text, std::string* error);

}  // namespace hls
