// SystemConfig text: key=value overrides (CLI flags, config files, chaos
// repros) and a description that parses back to the same config. Keys,
// their fields and their allowed values come from the one list in
// hybrid/config.hpp (for_each_config_key); docs/CONFIG.md catalogues them.
// The repeatable `fault=<window>` key appends a window (parse_fault_window
// grammar in sim/fault_schedule.hpp); "fault=clear" resets the list.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "hybrid/config.hpp"

namespace hls {

/// Applies one `key=value` override. Returns false (and fills `error` when
/// non-null) for unknown keys and for values the key does not allow; the
/// config is only modified on success.
bool apply_config_override(SystemConfig& cfg, const std::string& assignment,
                           std::string* error = nullptr);

/// Parses a config file: one `key=value` per line, '#' comments and blank
/// lines ignored. Returns std::nullopt on the first bad line, or when the
/// result fails SystemConfig::check().
[[nodiscard]] std::optional<SystemConfig> parse_config_file(
    std::istream& in, const SystemConfig& base, std::string* error = nullptr);

/// One line per key, doubles in shortest round-trip form: parsing it back
/// gives the same config.
void describe_config(std::ostream& out, const SystemConfig& cfg);

}  // namespace hls
