// Run-artifact tests: schema bytes, determinism (same seed => byte-identical
// serialization), registry population on every run (observation enabled or
// not), the registry's accounting identities, one unit per metric name
// across every system, and the obs_artifact config hook writing the file
// from run_simulation (or warning when it cannot).
#include "core/artifact.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/centralized_system.hpp"
#include "baseline/distributed_system.hpp"
#include "core/driver.hpp"
#include "obs/phase.hpp"
#include "obs/registry.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

SystemConfig quick_config() {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 1.5;
  cfg.seed = 7;
  return cfg;
}

RunOptions quick_options() {
  RunOptions o;
  o.warmup_seconds = 10.0;
  o.measure_seconds = 60.0;
  return o;
}

std::string artifact_of(const RunResult& r) {
  std::ostringstream out;
  write_run_artifact(out, r);
  return out.str();
}

TEST(Artifact, RegistryAlwaysPopulatedAndSchemaTagged) {
  const RunResult r = run_simulation(quick_config(),
                                     {StrategyKind::MinAverageNsys, 0.0},
                                     quick_options());
  // The export pass runs unconditionally (it is read-only, post-run), so
  // the registry is populated even with every obs feature off.
  EXPECT_GT(r.registry.size(), 50u);
  ASSERT_NE(r.registry.find("txn.completions"), nullptr);
  EXPECT_EQ(r.registry.find("txn.completions")->count, r.metrics.completions);

  const std::string doc = artifact_of(r);
  EXPECT_EQ(doc.rfind("{\"schema\":\"hls-run-artifact-v1\",\"run\":{", 0), 0u);
  EXPECT_NE(doc.find("\"strategy\":\"min-average-nsys\""), std::string::npos);
  EXPECT_NE(doc.find("\"seed\":7"), std::string::npos);
  EXPECT_NE(doc.find("\"registry\":{\"counters\":{"), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
}

TEST(Artifact, SameSeedSerializesByteIdentical) {
  const RunResult a = run_simulation(quick_config(),
                                     {StrategyKind::MinAverageNsys, 0.0},
                                     quick_options());
  const RunResult b = run_simulation(quick_config(),
                                     {StrategyKind::MinAverageNsys, 0.0},
                                     quick_options());
  EXPECT_EQ(artifact_of(a), artifact_of(b));
}

TEST(Artifact, TelemetryAddsMetricsWithoutPerturbingTheRest) {
  SystemConfig plain = quick_config();
  SystemConfig armed = quick_config();
  armed.obs_resource_telemetry = true;
  armed.obs_heat_buckets = 8;
  const RunResult p = run_simulation(plain, {StrategyKind::MinAverageNsys, 0.0},
                                     quick_options());
  const RunResult a = run_simulation(armed, {StrategyKind::MinAverageNsys, 0.0},
                                     quick_options());
  // Telemetry is pure state writes: the simulated metrics are bit-identical,
  // and the armed run's registry is a strict superset.
  EXPECT_EQ(p.metrics.completions, a.metrics.completions);
  EXPECT_EQ(p.metrics.rt_all.sum(), a.metrics.rt_all.sum());
  EXPECT_GT(a.registry.size(), p.registry.size());
  EXPECT_EQ(p.registry.find("central.locks.heat.0"), nullptr);
  EXPECT_NE(a.registry.find("central.locks.heat.0"), nullptr);
  EXPECT_NE(a.registry.find("central.io.in_flight"), nullptr);
  EXPECT_NE(a.registry.find("central.locks.wait_queue"), nullptr);
}

// Double entry: every total the registry exports equals the sum of its
// parts, as exported. A field mapped to the wrong counter or stat in
// export_registry breaks one of these.
TEST(Artifact, RegistryAccountingIdentitiesHold) {
  SystemConfig cfg = quick_config();
  cfg.obs_resource_telemetry = true;
  cfg.obs_heat_buckets = 8;
  // Contention, ship timeouts and outages: every abort cause counts, each
  // to its own total, so a cause exported under another's name shows.
  cfg.lockspace = 2000;
  cfg.prob_write_lock = 0.6;
  cfg.ship_timeout = 2.0;
  cfg.faults.windows.push_back({FaultKind::CentralOutage, -1, 30.0, 10.0});
  cfg.faults.windows.push_back({FaultKind::SiteOutage, 3, 40.0, 5.0});
  const RunResult r = run_simulation(cfg, {StrategyKind::MinAverageNsys, 0.0},
                                     quick_options());
  const obs::Registry& reg = r.registry;
  auto count = [&reg](const std::string& name) -> std::uint64_t {
    const obs::MetricEntry* e = reg.find(name);
    EXPECT_NE(e, nullptr) << name;
    return e == nullptr ? 0 : e->count;
  };

  for (const obs::MetricEntry& e : reg.entries()) {
    EXPECT_FALSE(e.unit.empty()) << e.name;
  }
  EXPECT_GT(count("txn.completions"), 0u);
  EXPECT_EQ(count("txn.completions"), count("txn.completions.local_a") +
                                          count("txn.completions.shipped_a") +
                                          count("txn.completions.class_b"));
  for (const char* name :
       {"aborts.preempted", "aborts.invalidated", "aborts.auth_refused",
        "aborts.deadlock", "aborts.ship_timeout", "aborts.crash",
        "txn.arrivals.class_a", "txn.shipped.class_a"}) {
    std::uint64_t site_sum = 0;
    for (int s = 0; s < cfg.num_sites; ++s) {
      site_sum += count("site" + std::to_string(s) + "." + name);
    }
    EXPECT_GT(count(name), 0u) << name;
    EXPECT_EQ(count(name), site_sum) << name;
  }

  // Every completion charges its whole response time to phases.
  const obs::MetricEntry* rt = reg.find("rt.all");
  ASSERT_NE(rt, nullptr);
  int phases = 0;
  double phase_sum = 0.0;
  for (const obs::MetricEntry& e : reg.entries()) {
    if (e.kind == obs::MetricKind::Stat && e.name.rfind("phase.", 0) == 0) {
      ++phases;
      phase_sum += e.sum;
      EXPECT_EQ(e.count, rt->count) << e.name;
    }
  }
  EXPECT_EQ(phases, obs::kPhaseCount);
  EXPECT_NEAR(phase_sum, rt->sum, 1e-9 * rt->sum);

  for (const obs::MetricEntry& e : reg.entries()) {
    if (e.kind == obs::MetricKind::Stat && e.count > 0) {
      EXPECT_LE(e.min, e.mean + 1e-12) << e.name;
      EXPECT_LE(e.mean, e.max + 1e-12) << e.name;
    }
  }
}

/// `name` without its "central." or "site<k>." scope and without
/// bucket_counter's ".<bucket>" suffix: the instrument it registers.
std::string instrument_of(const std::string& name) {
  const auto digits = [](const std::string& s, std::size_t from,
                         std::size_t to) {
    return from < to && s.find_first_not_of("0123456789", from) >= to;
  };
  std::string base = name;
  if (base.rfind("central.", 0) == 0) {
    base.erase(0, 8);
  } else if (const std::size_t dot = base.find('.');
             base.rfind("site", 0) == 0 && dot != std::string::npos &&
             digits(base, 4, dot)) {
    base.erase(0, dot + 1);
  }
  if (const std::size_t dot = base.rfind('.');
      dot != std::string::npos && digits(base, dot + 1, base.size())) {
    base.erase(dot);
  }
  return base;
}

// Downstream tooling aggregates series by name, so an instrument means one
// unit wherever it is registered: in any scope, in the hybrid system with
// every optional registration armed, and in both baselines.
TEST(Artifact, EveryInstrumentCarriesOneUnitAcrossSystems) {
  SystemConfig cfg = quick_config();
  cfg.obs_resource_telemetry = true;
  cfg.obs_heat_buckets = 4;
  std::vector<obs::Registry> registries;
  registries.push_back(run_simulation(cfg, {StrategyKind::MinAverageNsys, 0.0},
                                      quick_options())
                           .registry);
  CentralizedSystem central(cfg);
  central.enable_arrivals();
  central.run_for(30.0);
  central.export_registry(registries.emplace_back());
  DistributedSystem distributed(cfg);
  distributed.enable_arrivals();
  distributed.run_for(30.0);
  distributed.export_registry(registries.emplace_back());

  EXPECT_EQ(instrument_of("site12.locks.heat.3"), "locks.heat");
  EXPECT_EQ(instrument_of("central.cpu.util"), "cpu.util");
  EXPECT_EQ(instrument_of("txn.arrivals.class_a"), "txn.arrivals.class_a");
  std::map<std::string, const obs::MetricEntry*> first;
  for (const obs::Registry& reg : registries) {
    EXPECT_NE(reg.find("txn.completions"), nullptr);
    for (const obs::MetricEntry& e : reg.entries()) {
      const auto [it, inserted] = first.emplace(instrument_of(e.name), &e);
      EXPECT_EQ(e.unit, it->second->unit)
          << e.name << " and " << it->second->name << " register "
          << it->first << " in two units";
    }
  }
  EXPECT_NE(first.find("locks.heat"), first.end());
  EXPECT_NE(first.find("link.up.in_flight"), first.end());
  EXPECT_NE(first.find("msg.remote_calls"), first.end());
}

TEST(Artifact, ObsArtifactConfigWritesTheFile) {
  const std::string path = testing::TempDir() + "hls_artifact_test.json";
  SystemConfig cfg = quick_config();
  cfg.obs_artifact = path;
  const RunResult r = run_simulation(cfg, {StrategyKind::MinAverageNsys, 0.0},
                                     quick_options());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::ostringstream file_bytes;
  file_bytes << in.rdbuf();
  EXPECT_EQ(file_bytes.str(), artifact_of(r));
  in.close();
  std::remove(path.c_str());
}

// A path that cannot be opened is one warning naming the key and the path;
// the run still returns its result.
TEST(Artifact, UnopenableArtifactPathWarnsAndReturnsTheResult) {
  // A regular file as the parent directory: no process can create the path.
  const std::string not_a_dir = testing::TempDir() + "hls_artifact_not_a_dir";
  std::ofstream(not_a_dir) << "file\n";
  SystemConfig cfg = quick_config();
  cfg.obs_artifact = not_a_dir + "/a.json";
  testing::internal::CaptureStderr();
  const RunResult r = run_simulation(cfg, {StrategyKind::MinAverageNsys, 0.0},
                                     quick_options());
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] obs_artifact: cannot write '" + cfg.obs_artifact + "'\n");
  EXPECT_GT(r.metrics.completions, 0u);
  EXPECT_FALSE(write_run_artifact_file(cfg.obs_artifact, r));
  std::remove(not_a_dir.c_str());
}

}  // namespace
}  // namespace hls
