#pragma once
// Bad fixture: config key list drift (rule: config-roundtrip) — a field with
// no list entry (line 7) and a listed key the docs never mention (line 14).
namespace fx {
struct SystemConfig {
  double documented_key = 1.5;
  double unlisted_key = 2.5;
  double undocumented_key = 4.5;
};
template <class Config, class Key>
void for_each_config_key(Config& c, Key&& key) {
  // Enum spellings and other literals after the key are not keys.
  key("documented_key", c.documented_key, Names{"not_a_key"});
  key("undocumented_key", c.undocumented_key, 0);
}
}  // namespace fx
