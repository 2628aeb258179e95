// Deterministic chaos soak harness (docs/CHAOS.md).
//
// An episode is a small randomly generated configuration (sites, load,
// strategy, composed fault schedule — crashes, link degradation, and
// message-level chaos) run to drain and checked against the full oracle
// stack: internal invariants, drain-to-zero, flow conservation, the
// phase-sum identity, the conflict-matrix total, duplicate-delivery
// accounting, and byte-identical replay. Every quantity is derived from the
// master seed, so an episode index is a complete bug report.
//
// When an episode fails, shrink_chaos_episode() delta-debugs the fault
// schedule down to a minimal failing repro (fewest windows, then narrowest,
// then the shortest run), and write_chaos_repro() emits it as a
// self-contained config file that parse_chaos_repro() / the chaos_soak tool
// can re-run with one command.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "hybrid/config.hpp"
#include "routing/factory.hpp"

namespace hls {

class HybridSystem;

/// One soak episode: a complete SystemConfig (fault schedule included, with
/// the repro envelope fields chaos_strategy / chaos_run_seconds filled in)
/// plus the parsed strategy spec.
struct ChaosEpisode {
  SystemConfig config;
  StrategySpec strategy;
};

/// Optional extra oracle, run after the built-in stack on the drained
/// system; append one message per violation. Used by the soak self-test to
/// inject a deliberate bug, and available for experiment-specific checks.
using ChaosOracle =
    std::function<void(const HybridSystem&, std::vector<std::string>&)>;

/// Outcome of one episode. `failures` empty == every oracle passed.
struct ChaosVerdict {
  std::vector<std::string> failures;
  /// FNV-1a fingerprint of the completion-record stream (id, runs,
  /// completion and response time bits) — the replay-determinism witness.
  std::uint64_t fingerprint = 0;
  std::uint64_t completions = 0;
  std::uint64_t dup_msgs_dropped = 0;
  std::uint64_t msgs_resequenced = 0;

  [[nodiscard]] bool passed() const { return failures.empty(); }
};

/// Deterministically generates episode `index` of the soak keyed by
/// `master_seed`: 3–8 sites, a small lock space, moderate load, a strategy
/// drawn from the paper set, steady message-level chaos, and 1–4 composed
/// fault windows inside a 10–20 s run.
[[nodiscard]] ChaosEpisode make_chaos_episode(std::uint64_t master_seed,
                                              int index);

/// Runs the episode once to drain and applies the oracle stack.
/// HybridSystem::check_invariants() runs last and aborts the process on
/// violation (library-bug semantics) — print describe_chaos_episode() first
/// so an abort is attributable.
[[nodiscard]] ChaosVerdict run_chaos_once(const ChaosEpisode& episode,
                                          const ChaosOracle& extra = {});

/// run_chaos_once() twice; any divergence between the two runs (fingerprint
/// or counters) is appended as a replay-determinism failure.
[[nodiscard]] ChaosVerdict run_chaos_episode(const ChaosEpisode& episode,
                                             const ChaosOracle& extra = {});

/// Shrink predicate: true when the candidate episode still fails. The soak
/// tool supplies a subprocess-isolated predicate (so HLS_ASSERT aborts are
/// shrinkable too); tests use make_inprocess_predicate.
using ChaosFailurePredicate = std::function<bool(const ChaosEpisode&)>;

/// Predicate that runs the episode in this process and reports soft oracle
/// failures (an HLS_ASSERT violation still aborts).
[[nodiscard]] ChaosFailurePredicate make_inprocess_predicate(
    ChaosOracle extra = {});

struct ChaosShrinkResult {
  ChaosEpisode episode;
  int evaluations = 0;  ///< predicate runs spent shrinking
};

/// Delta-debugs `failing` to a minimal still-failing episode: drops fault
/// windows and steady chaos knobs to a fixpoint (fewest windows), then
/// narrows each surviving window (shortest durations), then trims the run
/// length. `failing` must satisfy the predicate.
[[nodiscard]] ChaosShrinkResult shrink_chaos_episode(
    const ChaosEpisode& failing, const ChaosFailurePredicate& still_fails);

/// Writes a self-contained repro config (a parse_config_file document with
/// the chaos_strategy / chaos_run_seconds envelope; round-trips through
/// parse_chaos_repro).
void write_chaos_repro(std::ostream& out, const ChaosEpisode& episode);

/// Parses a repro written by write_chaos_repro. Returns std::nullopt and
/// fills `error` (when non-null) on malformed input or a missing envelope.
[[nodiscard]] std::optional<ChaosEpisode> parse_chaos_repro(
    std::istream& in, std::string* error = nullptr);

/// One-line episode summary (sites, load, strategy, fault windows) printed
/// before each run so a hard abort mid-episode is attributable.
[[nodiscard]] std::string describe_chaos_episode(const ChaosEpisode& episode);

/// Largest episode count a soak takes (the count is an int).
inline constexpr int kMaxChaosEpisodes = std::numeric_limits<int>::max();

/// An episode count as the soak tool reads it from --episodes= or the
/// HLS_CHAOS_EPISODES variable: all of `text` as a whole number in
/// [1, kMaxChaosEpisodes], or std::nullopt ("2x", "0x2", "0", "" and
/// out-of-range values alike).
[[nodiscard]] std::optional<int> parse_chaos_episodes(const std::string& text);

}  // namespace hls
