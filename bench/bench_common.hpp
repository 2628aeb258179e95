// Shared scaffolding for the figure-reproduction benches.
//
// Every bench prints: a banner stating which paper figure it regenerates and
// what shape to expect, the aligned series table, and a machine-readable CSV
// copy (lines prefixed `csv,`). Simulation length scales with the
// HLS_TIME_SCALE environment variable (e.g. 0.2 for a quick smoke run).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/api.hpp"
#include "obs/phase.hpp"

namespace hls::bench {

/// Phase-breakdown columns are opt-in via HLS_OBS=1 so that default bench
/// output stays byte-identical across builds with and without them.
inline bool obs_enabled() {
  const char* v = std::getenv("HLS_OBS");
  return v != nullptr && v[0] == '1';
}

inline RunOptions scaled_options() {
  const double scale = time_scale_from_env();
  RunOptions opts;
  opts.warmup_seconds = 150.0 * scale;
  opts.measure_seconds = 800.0 * scale;
  return opts;
}

inline SystemConfig paper_baseline(double comm_delay = 0.2) {
  SystemConfig cfg;  // defaults are the paper's §4.1 parameters
  cfg.comm_delay = comm_delay;
  cfg.seed = 20260707;
  return cfg;
}

inline void banner(const std::string& figure, const std::string& claim,
                   const SystemConfig& cfg, const RunOptions& opts) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper expectation: %s\n", claim.c_str());
  std::printf(
      "params: %d sites, %.0f/%.0f MIPS local/central, %.2f s links, "
      "p_loc=%.2f, lockspace=%u\n",
      cfg.num_sites, cfg.local_mips, cfg.central_mips, cfg.comm_delay,
      cfg.prob_class_a, cfg.lockspace);
  std::printf("windows: %.0f s warmup + %.0f s measured (HLS_TIME_SCALE to shrink)\n",
              opts.warmup_seconds, opts.measure_seconds);
  std::printf("================================================================\n");
}

inline void emit(const Table& table) {
  table.print(std::cout);
  std::printf("\n");
  table.print_csv(std::cout);
}

}  // namespace hls::bench
