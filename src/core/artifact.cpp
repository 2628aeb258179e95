#include "core/artifact.hpp"

#include <fstream>
#include <ostream>

#include "core/driver.hpp"
#include "obs/registry.hpp"

namespace hls {

void write_run_artifact(std::ostream& out, const RunResult& result) {
  const SystemConfig& cfg = result.config;
  out << "{\"schema\":\"" << kRunArtifactSchema << "\",\"run\":{";
  out << "\"arrival_rate_per_site\":";
  obs::write_json_number(out, cfg.arrival_rate_per_site);
  out << ",\"num_sites\":" << cfg.num_sites;
  out << ",\"seed\":" << cfg.seed;
  out << ",\"static_p_ship\":";
  obs::write_json_number(out, result.static_p_ship);
  out << ",\"strategy\":";
  obs::write_json_string(out, result.strategy_name);
  out << ",\"window_seconds\":";
  obs::write_json_number(out, result.metrics.window_seconds());
  out << "},\"registry\":";
  result.registry.write_json(out);
  out << "}\n";
}

bool write_run_artifact_file(const std::string& path, const RunResult& result) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  write_run_artifact(out, result);
  return static_cast<bool>(out.flush());
}

}  // namespace hls
