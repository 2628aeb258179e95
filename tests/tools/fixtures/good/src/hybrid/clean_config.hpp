#pragma once
// Good twin: every scalar SystemConfig field has a config key list entry and
// every listed key is documented (config-roundtrip). Vector and nested
// *Config members are exempt — they are configured through their own keys.
#include <vector>
namespace fx {
struct FaultScheduleConfig {
  double rate = 0.0;
};
struct SystemConfig {
  double tuned_key = 1.5;
  std::vector<double> per_site_override;
  FaultScheduleConfig faults;
};
template <class Config, class Key>
void for_each_config_key(Config& c, Key&& key) {
  key("tuned_key", c.tuned_key, 0);
  key("fault_rate", c.faults.rate, 0);
}
}  // namespace fx
