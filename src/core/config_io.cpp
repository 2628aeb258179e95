#include "core/config_io.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <type_traits>

#include "util/table.hpp"

namespace hls {

namespace {

using Problem = std::optional<std::string>;

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

Problem bad_number(const char* key, const std::string& text) {
  return "bad numeric value for " + std::string(key) + ": " + text;
}

// One parse_value overload per kind of list entry (hybrid/config.hpp). Each
// writes `*out` only when the text is an allowed value.

template <class T>
Problem parse_value(const char* key, const std::string& text,
                    const KeyRange& range, T* out) {
  const std::optional<double> v = parse_number(text);
  if (!v.has_value()) {
    return bad_number(key, text);
  }
  if (!range.allows(*v)) {
    return key_error(key, range);
  }
  if constexpr (std::is_integral_v<T>) {
    if (*v != std::trunc(*v)) {
      return std::string(key) + " must be a whole number";
    }
    // Every integer key's range starts at 0 or above, so only the top end
    // can overflow the field.
    if (*v > static_cast<double>(std::numeric_limits<T>::max())) {
      return std::string(key) + " must be at most " +
             std::to_string(std::numeric_limits<T>::max());
    }
  }
  *out = static_cast<T>(*v);
  return std::nullopt;
}

/// The seed is parsed as a full 64-bit integer, not through a double: seeds
/// above 2^53 (chaos repros use the whole range) must round-trip exactly.
Problem parse_value(const char* key, const std::string& text, KeyAny,
                    std::uint64_t* out) {
  const std::optional<std::uint64_t> v = parse_uint64(text);
  if (!v.has_value()) {
    return bad_number(key, text);
  }
  *out = *v;
  return std::nullopt;
}

template <class E, std::size_t N>
Problem parse_value(const char* key, const std::string& text,
                    const KeyNames<N>& names, E* out) {
  for (std::size_t i = 0; i < N; ++i) {
    if (text == names.names[i]) {
      *out = static_cast<E>(i);
      return std::nullopt;
    }
  }
  return key_error(key, names);
}

template <class Allowed>
Problem parse_value(const char* key, const std::string& text,
                    const Allowed& allowed, std::string* out) {
  if (!allowed.allows(text)) {
    return key_error(key, allowed);
  }
  *out = text;
  return std::nullopt;
}

}  // namespace

bool apply_config_override(SystemConfig& cfg, const std::string& assignment,
                           std::string* error) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos) {
    return fail(error, "expected key=value: " + assignment);
  }
  const std::string key = assignment.substr(0, eq);
  const std::string value = assignment.substr(eq + 1);

  if (key == "fault") {
    if (value == "clear") {
      cfg.faults.windows.clear();
      return true;
    }
    FaultWindow window;
    std::string window_error;
    if (!parse_fault_window(value, &window, &window_error)) {
      return fail(error, "fault: " + window_error);
    }
    cfg.faults.windows.push_back(window);
    return true;
  }

  // Quote the whole assignment, not just the key: in a config file the
  // line number plus the offending text pinpoints the typo immediately.
  Problem problem = "unknown config key '" + key + "' in '" + assignment + "'";
  for_each_config_key(cfg, [&](const char* name, auto& field,
                               const auto& allowed) {
    if (key == name) {
      problem = parse_value(name, value, allowed, &field);
    }
  });
  return problem ? fail(error, *problem) : true;
}

std::optional<SystemConfig> parse_config_file(std::istream& in,
                                              const SystemConfig& base,
                                              std::string* error) {
  SystemConfig cfg = base;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    const auto last = line.find_last_not_of(" \t\r");
    if (!apply_config_override(cfg, line.substr(first, last - first + 1),
                               error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + *error;
      }
      return std::nullopt;
    }
  }
  // Cross-field rules (lockspace vs num_sites, fault-window sites) can only
  // be checked once the whole file is read.
  if (Problem problem = cfg.check()) {
    fail(error, *problem);
    return std::nullopt;
  }
  return cfg;
}

void describe_config(std::ostream& out, const SystemConfig& cfg) {
  out << "# hybridls system configuration\n";
  for_each_config_key(cfg, [&out](const char* key, const auto& value,
                                  const auto& allowed) {
    using T = std::decay_t<decltype(value)>;
    out << key << '=';
    if constexpr (std::is_enum_v<T>) {
      out << allowed.names[static_cast<std::size_t>(value)];
    } else if constexpr (std::is_floating_point_v<T>) {
      out << format_shortest(value);
    } else {
      out << value;  // integers, bools (as 0/1) and text
    }
    out << '\n';
  });
  for (const FaultWindow& window : cfg.faults.windows) {
    out << "fault=" << format_fault_window(window) << '\n';
  }
}

}  // namespace hls
