// chaos_soak: deterministic chaos soak driver (docs/CHAOS.md).
//
// Runs N generated episodes (core/chaos.hpp) against the full oracle stack.
// Each episode executes in a forked subprocess so that an HLS_ASSERT abort
// is contained, attributed to the episode line printed beforehand, and —
// like any soft oracle failure — delta-debugged down to a minimal repro
// config that this same tool can re-run with --repro=FILE.
//
//   chaos_soak [--seed=N] [--episodes=N] [--strategy=SPEC] [--repro=FILE]
//              [--shrink-out=FILE] [--no-fork]
//
// Episode count precedence: --episodes flag, then the HLS_CHAOS_EPISODES
// environment variable, then 100. Both take a whole number in
// [1, INT_MAX] (parse_chaos_episodes). Exit status 0 = every episode
// passed; a bad flag value (a --seed that is not a 64-bit whole number, an
// --episodes that is not a positive one) is one line naming the flag and
// the usage status 2. A bad HLS_CHAOS_EPISODES value is one stderr line
// naming the variable, and the soak runs as if it were unset.
//
// --strategy=SPEC forces every generated episode onto one routing spec
// (full factory grammar, wrappers included) instead of the generator's
// strategy pool — used by scripts/check.sh to soak the adaptive controller
// under message-level chaos. Adaptive specs get adapt_interval=1.0 when the
// generated config left it at 0, so the controller actually reviews.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "routing/factory.hpp"
#include "util/table.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#define HLS_CHAOS_HAVE_FORK 1
#else
#define HLS_CHAOS_HAVE_FORK 0
#endif

namespace {

struct Options {
  std::uint64_t seed = 20260808;
  int episodes = 100;
  std::string repro_path;
  std::string strategy;  ///< forced routing spec; empty = generator's pool
  hls::StrategySpec strategy_spec;  ///< `strategy`, parsed
  std::string shrink_out = "chaos_repro.conf";
  bool use_fork = HLS_CHAOS_HAVE_FORK != 0;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed=N] [--episodes=N] [--strategy=SPEC]\n"
               "          [--repro=FILE] [--shrink-out=FILE] [--no-fork]\n",
               argv0);
}

bool parse_args(int argc, char** argv, Options* opt) {
  if (const char* env = std::getenv("HLS_CHAOS_EPISODES")) {
    if (const std::optional<int> n = hls::parse_chaos_episodes(env)) {
      opt->episodes = *n;
    } else {
      std::fprintf(stderr,
                   "chaos_soak: ignoring HLS_CHAOS_EPISODES '%s': not a whole "
                   "number in [1, %d]\n",
                   env, hls::kMaxChaosEpisodes);
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      const std::optional<std::uint64_t> seed = hls::parse_uint64(arg.substr(7));
      if (!seed.has_value()) {
        std::fprintf(stderr,
                     "chaos_soak: bad --seed value '%s': must be a whole "
                     "number in [0, %llu]\n",
                     arg.c_str() + 7,
                     static_cast<unsigned long long>(
                         std::numeric_limits<std::uint64_t>::max()));
        return false;
      }
      opt->seed = *seed;
    } else if (arg.rfind("--episodes=", 0) == 0) {
      const std::optional<int> n = hls::parse_chaos_episodes(arg.substr(11));
      if (!n.has_value()) {
        std::fprintf(stderr,
                     "chaos_soak: bad --episodes value '%s': must be a whole "
                     "number in [1, %d]\n",
                     arg.c_str() + 11, hls::kMaxChaosEpisodes);
        return false;
      }
      opt->episodes = *n;
    } else if (arg.rfind("--strategy=", 0) == 0) {
      opt->strategy = arg.substr(11);
      std::string error;
      const std::optional<hls::StrategySpec> spec =
          hls::parse_strategy_spec(opt->strategy, &error);
      if (!spec.has_value()) {
        std::fprintf(stderr, "chaos_soak: --strategy: %s\n", error.c_str());
        return false;
      }
      opt->strategy_spec = *spec;
    } else if (arg.rfind("--repro=", 0) == 0) {
      opt->repro_path = arg.substr(8);
    } else if (arg.rfind("--shrink-out=", 0) == 0) {
      opt->shrink_out = arg.substr(13);
    } else if (arg == "--no-fork") {
      opt->use_fork = false;
    } else {
      std::fprintf(stderr, "chaos_soak: unknown argument '%s'\n", arg.c_str());
      usage(argv[0]);
      return false;
    }
  }
  return true;
}

void print_failures(const hls::ChaosVerdict& verdict) {
  for (const std::string& failure : verdict.failures) {
    std::fprintf(stderr, "  oracle: %s\n", failure.c_str());
  }
}

#if HLS_CHAOS_HAVE_FORK
/// Runs the episode in a forked child. Returns true when it failed — by
/// soft oracle verdict (exit 1), HLS_ASSERT abort, or any other signal.
/// `quiet` redirects the child's output to /dev/null (shrink probes).
bool episode_fails_in_subprocess(const hls::ChaosEpisode& episode, bool quiet) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("chaos_soak: fork");
    std::exit(2);
  }
  if (pid == 0) {
    if (quiet) {
      const int null_fd = open("/dev/null", O_WRONLY);
      if (null_fd >= 0) {
        dup2(null_fd, 1);
        dup2(null_fd, 2);
        close(null_fd);
      }
    }
    const hls::ChaosVerdict verdict = hls::run_chaos_episode(episode);
    print_failures(verdict);
    std::fflush(stderr);
    _exit(verdict.passed() ? 0 : 1);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) {
    std::perror("chaos_soak: waitpid");
    std::exit(2);
  }
  if (WIFSIGNALED(status) && !quiet) {
    std::fprintf(stderr, "  episode child killed by signal %d\n",
                 WTERMSIG(status));
  }
  return !(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}
#endif

bool episode_fails(const Options& opt, const hls::ChaosEpisode& episode,
                   bool quiet) {
#if HLS_CHAOS_HAVE_FORK
  if (opt.use_fork) {
    return episode_fails_in_subprocess(episode, quiet);
  }
#endif
  (void)opt;
  const hls::ChaosVerdict verdict = hls::run_chaos_episode(episode);
  if (!quiet) {
    print_failures(verdict);
  }
  return !verdict.passed();
}

/// Shrinks the failing episode and writes the minimal repro config.
void shrink_and_emit(const Options& opt, const hls::ChaosEpisode& failing) {
  std::fprintf(stderr, "shrinking fault schedule (%zu windows)...\n",
               failing.config.faults.windows.size());
  const hls::ChaosShrinkResult shrunk = hls::shrink_chaos_episode(
      failing, [&opt](const hls::ChaosEpisode& candidate) {
        return episode_fails(opt, candidate, /*quiet=*/true);
      });
  std::fprintf(stderr, "minimal repro after %d probe runs: %s\n",
               shrunk.evaluations,
               hls::describe_chaos_episode(shrunk.episode).c_str());
  std::ostringstream repro;
  hls::write_chaos_repro(repro, shrunk.episode);
  std::ofstream out(opt.shrink_out);
  if (out.is_open()) {
    out << repro.str();
    std::fprintf(stderr, "repro written to %s\n", opt.shrink_out.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s; repro follows:\n%s",
                 opt.shrink_out.c_str(), repro.str().c_str());
  }
}

int run_repro(const Options& opt) {
  std::ifstream in(opt.repro_path);
  if (!in.is_open()) {
    std::fprintf(stderr, "chaos_soak: cannot open %s\n",
                 opt.repro_path.c_str());
    return 2;
  }
  std::string error;
  const std::optional<hls::ChaosEpisode> episode =
      hls::parse_chaos_repro(in, &error);
  if (!episode.has_value()) {
    std::fprintf(stderr, "chaos_soak: %s: %s\n", opt.repro_path.c_str(),
                 error.c_str());
    return 2;
  }
  std::printf("repro: %s\n", hls::describe_chaos_episode(*episode).c_str());
  const hls::ChaosVerdict verdict = hls::run_chaos_episode(*episode);
  if (verdict.passed()) {
    std::printf("repro PASSED (%llu completions, %llu dups dropped, "
                "%llu resequenced)\n",
                static_cast<unsigned long long>(verdict.completions),
                static_cast<unsigned long long>(verdict.dup_msgs_dropped),
                static_cast<unsigned long long>(verdict.msgs_resequenced));
    return 0;
  }
  print_failures(verdict);
  std::fprintf(stderr, "repro FAILED (%zu oracle violations)\n",
               verdict.failures.size());
  return 1;
}

int run_soak(const Options& opt) {
  for (int i = 0; i < opt.episodes; ++i) {
    hls::ChaosEpisode episode = hls::make_chaos_episode(opt.seed, i);
    if (!opt.strategy.empty()) {
      // Force the episode onto the requested spec; the repro envelope and
      // the shrinker inherit it, so a failure still round-trips --repro.
      episode.config.chaos_strategy = opt.strategy;
      episode.strategy = opt.strategy_spec;
      if (episode.strategy.adaptive && episode.config.adapt_interval <= 0.0) {
        episode.config.adapt_interval = 1.0;
      }
    }
    // Printed before the run so an abort mid-episode is attributable.
    std::printf("episode %3d/%d: %s\n", i + 1, opt.episodes,
                hls::describe_chaos_episode(episode).c_str());
    std::fflush(stdout);
    if (episode_fails(opt, episode, /*quiet=*/false)) {
      std::fprintf(stderr, "episode %d FAILED (seed=%llu index=%d)\n", i + 1,
                   static_cast<unsigned long long>(opt.seed), i);
      shrink_and_emit(opt, episode);
      return 1;
    }
  }
  std::printf("chaos soak: %d/%d episodes passed (seed=%llu)\n", opt.episodes,
              opt.episodes, static_cast<unsigned long long>(opt.seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    return 2;
  }
  if (!opt.repro_path.empty()) {
    return run_repro(opt);
  }
  return run_soak(opt);
}
