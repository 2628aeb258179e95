#include "core/config_io.hpp"

#include <cerrno>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

namespace hls {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty()) {
    return false;
  }
  *out = v;
  return true;
}

/// Boolean config keys are spelled 0/1; an exact zero test is the intended
/// semantics, not a missing tolerance.
bool flag_set(double v) {
  return v != 0.0;  // hlslint:allow(float-eq)
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

  // String-valued keys first.
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
  if (key == "deadlock_victim") {
    if (value == "requester") {
      cfg.deadlock_victim = DeadlockVictim::Requester;
    } else if (value == "youngest") {
      cfg.deadlock_victim = DeadlockVictim::Youngest;
    } else {
      return fail(error, "deadlock_victim must be requester|youngest");
    }
    return true;
  }
  if (key == "class_b_mode") {
    if (value == "ship") {
      cfg.class_b_mode = ClassBMode::Ship;
    } else if (value == "remote-calls") {
      cfg.class_b_mode = ClassBMode::RemoteCalls;
    } else {
      return fail(error, "class_b_mode must be ship|remote-calls");
    }
    return true;
  }
  if (key == "obs_span_sink") {
    if (!value.empty() && value.rfind("perfetto:", 0) != 0 &&
        value.rfind("csv:", 0) != 0) {
      return fail(error, "obs_span_sink must be empty, perfetto:PATH, or csv:PATH");
    }
    cfg.obs_span_sink = value;
    return true;
  }
  if (key == "obs_artifact") {
    // Any path (or empty to disable); existence is checked when the driver
    // opens it, not at parse time.
    cfg.obs_artifact = value;
    return true;
  }
  if (key == "chaos_strategy") {
    // Validated by parse_chaos_repro, which returns parse_strategy_spec's
    // message, so the repro runner reports a typo instead of running.
    cfg.chaos_strategy = value;
    return true;
  }

  if (key == "seed") {
    // Parsed as a full 64-bit integer, not through the double path: seeds
    // above 2^53 (chaos repros use the whole range) must round-trip exactly.
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size() || errno != 0 ||
        value[0] == '-') {
      return fail(error, "bad numeric value for seed: " + value);
    }
    cfg.seed = static_cast<std::uint64_t>(parsed);
    return true;
  }

  double v = 0.0;
  if (!parse_double(value, &v)) {
    return fail(error, "bad numeric value for " + key + ": " + value);
  }

  if (key == "num_sites") {
    cfg.num_sites = static_cast<int>(v);
  } else if (key == "local_mips") {
    cfg.local_mips = v;
  } else if (key == "central_mips") {
    cfg.central_mips = v;
  } else if (key == "comm_delay") {
    cfg.comm_delay = v;
  } else if (key == "arrival_rate_per_site") {
    cfg.arrival_rate_per_site = v;
  } else if (key == "prob_class_a") {
    cfg.prob_class_a = v;
  } else if (key == "db_calls_per_txn") {
    cfg.db_calls_per_txn = static_cast<int>(v);
  } else if (key == "instr_per_call") {
    cfg.instr_per_call = v;
  } else if (key == "instr_msg_init") {
    cfg.instr_msg_init = v;
  } else if (key == "instr_msg_commit") {
    cfg.instr_msg_commit = v;
  } else if (key == "setup_io_time") {
    cfg.setup_io_time = v;
  } else if (key == "call_io_time") {
    cfg.call_io_time = v;
  } else if (key == "prob_call_io") {
    cfg.prob_call_io = v;
  } else if (key == "prob_write_lock") {
    cfg.prob_write_lock = v;
  } else if (key == "lockspace") {
    cfg.lockspace = static_cast<std::uint32_t>(v);
  } else if (key == "instr_ship_forward") {
    cfg.instr_ship_forward = v;
  } else if (key == "instr_apply_update") {
    cfg.instr_apply_update = v;
  } else if (key == "instr_apply_update_item") {
    cfg.instr_apply_update_item = v;
  } else if (key == "instr_recv_ack") {
    cfg.instr_recv_ack = v;
  } else if (key == "instr_auth_local") {
    cfg.instr_auth_local = v;
  } else if (key == "instr_commit_apply_local") {
    cfg.instr_commit_apply_local = v;
  } else if (key == "instr_send_async") {
    cfg.instr_send_async = v;
  } else if (key == "instr_remote_call") {
    cfg.instr_remote_call = v;
  } else if (key == "async_batch_window") {
    cfg.async_batch_window = v;
  } else if (key == "abort_restart_delay") {
    cfg.abort_restart_delay = v;
  } else if (key == "max_reruns") {
    cfg.max_reruns = static_cast<int>(v);
  } else if (key == "livelock_backoff_after") {
    if (v < 0.0) {
      return fail(error, "livelock_backoff_after must be non-negative");
    }
    cfg.livelock_backoff_after = static_cast<int>(v);
  } else if (key == "livelock_backoff") {
    if (v < 0.0) {
      return fail(error, "livelock_backoff must be non-negative");
    }
    cfg.livelock_backoff = v;
  } else if (key == "ideal_state_info") {
    cfg.ideal_state_info = flag_set(v);
  } else if (key == "geometric_call_count") {
    cfg.geometric_call_count = flag_set(v);
  } else if (key == "ship_timeout") {
    if (v < 0.0) {
      return fail(error, "ship_timeout must be non-negative");
    }
    cfg.ship_timeout = v;
  } else if (key == "ship_backoff") {
    if (v < 1.0) {
      return fail(error, "ship_backoff must be at least 1");
    }
    cfg.ship_backoff = v;
  } else if (key == "ship_max_retries") {
    if (v < 0.0) {
      return fail(error, "ship_max_retries must be non-negative");
    }
    cfg.ship_max_retries = static_cast<int>(v);
  } else if (key == "obs_sample_interval") {
    if (v < 0.0) {
      return fail(error, "obs_sample_interval must be non-negative");
    }
    cfg.obs_sample_interval = v;
  } else if (key == "report_top_k") {
    if (v < 0.0) {
      return fail(error, "report_top_k must be non-negative");
    }
    cfg.report_top_k = static_cast<int>(v);
  } else if (key == "obs_resource_telemetry") {
    cfg.obs_resource_telemetry = flag_set(v);
  } else if (key == "obs_heat_buckets") {
    if (v < 0.0) {
      return fail(error, "obs_heat_buckets must be non-negative");
    }
    cfg.obs_heat_buckets = static_cast<int>(v);
  } else if (key == "fault_random_link_rate") {
    cfg.faults.random_link_outage_rate = v;
  } else if (key == "fault_random_link_duration") {
    cfg.faults.random_link_outage_mean = v;
  } else if (key == "fault_random_horizon") {
    cfg.faults.random_horizon = v;
  } else if (key == "fault_dup_prob") {
    if (v < 0.0 || v >= 1.0) {
      return fail(error, "fault_dup_prob must be in [0, 1)");
    }
    cfg.faults.dup_prob = v;
  } else if (key == "fault_dup_delay") {
    if (v < 0.0) {
      return fail(error, "fault_dup_delay must be non-negative");
    }
    cfg.faults.dup_extra = v;
  } else if (key == "fault_reorder_prob") {
    if (v < 0.0 || v >= 1.0) {
      return fail(error, "fault_reorder_prob must be in [0, 1)");
    }
    cfg.faults.reorder_prob = v;
  } else if (key == "fault_reorder_window") {
    if (v < 0.0) {
      return fail(error, "fault_reorder_window must be non-negative");
    }
    cfg.faults.reorder_window = v;
  } else if (key == "fault_spike_prob") {
    if (v < 0.0 || v >= 1.0) {
      return fail(error, "fault_spike_prob must be in [0, 1)");
    }
    cfg.faults.spike_prob = v;
  } else if (key == "fault_spike_factor") {
    if (v < 0.0) {
      return fail(error, "fault_spike_factor must be non-negative");
    }
    cfg.faults.spike_factor = v;
  } else if (key == "ship_jitter") {
    if (v < 0.0) {
      return fail(error, "ship_jitter must be non-negative");
    }
    cfg.ship_jitter = v;
  } else if (key == "chaos_run_seconds") {
    if (v < 0.0) {
      return fail(error, "chaos_run_seconds must be non-negative");
    }
    cfg.chaos_run_seconds = v;
  } else if (key == "adapt_interval") {
    if (v < 0.0) {
      return fail(error, "adapt_interval must be non-negative");
    }
    cfg.adapt_interval = v;
  } else if (key == "adapt_threshold_step") {
    if (v < 0.0) {
      return fail(error, "adapt_threshold_step must be non-negative");
    }
    cfg.adapt_threshold_step = v;
  } else if (key == "adapt_refusal_frac") {
    if (v < 0.0 || v > 1.0) {
      return fail(error, "adapt_refusal_frac must be in [0, 1]");
    }
    cfg.adapt_refusal_frac = v;
  } else if (key == "adapt_hot_conflicts") {
    if (v < 1.0) {
      return fail(error, "adapt_hot_conflicts must be at least 1");
    }
    cfg.adapt_hot_conflicts = static_cast<int>(v);
  } else {
    // Quote the whole assignment, not just the key: in a config file the
    // line number plus the offending text pinpoints the typo immediately.
    return fail(error, "unknown config key '" + key + "' in '" + assignment + "'");
  }
  return true;
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
  // Site ranges in fault windows can only be checked once the whole file is
  // read (num_sites may be set after a fault= line).
  std::string fault_error;
  if (!cfg.faults.validate(cfg.num_sites, &fault_error)) {
    if (error != nullptr) {
      *error = "fault schedule: " + fault_error;
    }
    return std::nullopt;
  }
  return cfg;
}

void describe_config(std::ostream& out, const SystemConfig& cfg) {
  out << "# hybridls system configuration\n";
  out << "num_sites=" << cfg.num_sites << '\n';
  out << "local_mips=" << cfg.local_mips << '\n';
  out << "central_mips=" << cfg.central_mips << '\n';
  out << "comm_delay=" << cfg.comm_delay << '\n';
  out << "arrival_rate_per_site=" << cfg.arrival_rate_per_site << '\n';
  out << "prob_class_a=" << cfg.prob_class_a << '\n';
  out << "db_calls_per_txn=" << cfg.db_calls_per_txn << '\n';
  out << "instr_per_call=" << cfg.instr_per_call << '\n';
  out << "instr_msg_init=" << cfg.instr_msg_init << '\n';
  out << "instr_msg_commit=" << cfg.instr_msg_commit << '\n';
  out << "setup_io_time=" << cfg.setup_io_time << '\n';
  out << "call_io_time=" << cfg.call_io_time << '\n';
  out << "prob_call_io=" << cfg.prob_call_io << '\n';
  out << "prob_write_lock=" << cfg.prob_write_lock << '\n';
  out << "lockspace=" << cfg.lockspace << '\n';
  out << "instr_ship_forward=" << cfg.instr_ship_forward << '\n';
  out << "instr_apply_update=" << cfg.instr_apply_update << '\n';
  out << "instr_apply_update_item=" << cfg.instr_apply_update_item << '\n';
  out << "instr_recv_ack=" << cfg.instr_recv_ack << '\n';
  out << "instr_auth_local=" << cfg.instr_auth_local << '\n';
  out << "instr_commit_apply_local=" << cfg.instr_commit_apply_local << '\n';
  out << "instr_send_async=" << cfg.instr_send_async << '\n';
  out << "instr_remote_call=" << cfg.instr_remote_call << '\n';
  out << "async_batch_window=" << cfg.async_batch_window << '\n';
  out << "deadlock_victim="
      << (cfg.deadlock_victim == DeadlockVictim::Requester ? "requester"
                                                           : "youngest")
      << '\n';
  out << "class_b_mode="
      << (cfg.class_b_mode == ClassBMode::Ship ? "ship" : "remote-calls")
      << '\n';
  out << "seed=" << cfg.seed << '\n';
  out << "abort_restart_delay=" << cfg.abort_restart_delay << '\n';
  out << "max_reruns=" << cfg.max_reruns << '\n';
  out << "livelock_backoff_after=" << cfg.livelock_backoff_after << '\n';
  out << "livelock_backoff=" << cfg.livelock_backoff << '\n';
  out << "ideal_state_info=" << (cfg.ideal_state_info ? 1 : 0) << '\n';
  out << "geometric_call_count=" << (cfg.geometric_call_count ? 1 : 0) << '\n';
  out << "ship_timeout=" << cfg.ship_timeout << '\n';
  out << "ship_backoff=" << cfg.ship_backoff << '\n';
  out << "ship_max_retries=" << cfg.ship_max_retries << '\n';
  out << "ship_jitter=" << cfg.ship_jitter << '\n';
  out << "obs_sample_interval=" << cfg.obs_sample_interval << '\n';
  out << "obs_span_sink=" << cfg.obs_span_sink << '\n';
  out << "report_top_k=" << cfg.report_top_k << '\n';
  out << "obs_resource_telemetry=" << (cfg.obs_resource_telemetry ? 1 : 0)
      << '\n';
  out << "obs_heat_buckets=" << cfg.obs_heat_buckets << '\n';
  out << "obs_artifact=" << cfg.obs_artifact << '\n';
  out << "fault_random_link_rate=" << cfg.faults.random_link_outage_rate << '\n';
  out << "fault_random_link_duration=" << cfg.faults.random_link_outage_mean
      << '\n';
  out << "fault_random_horizon=" << cfg.faults.random_horizon << '\n';
  out << "fault_dup_prob=" << cfg.faults.dup_prob << '\n';
  out << "fault_dup_delay=" << cfg.faults.dup_extra << '\n';
  out << "fault_reorder_prob=" << cfg.faults.reorder_prob << '\n';
  out << "fault_reorder_window=" << cfg.faults.reorder_window << '\n';
  out << "fault_spike_prob=" << cfg.faults.spike_prob << '\n';
  out << "fault_spike_factor=" << cfg.faults.spike_factor << '\n';
  out << "chaos_strategy=" << cfg.chaos_strategy << '\n';
  out << "chaos_run_seconds=" << cfg.chaos_run_seconds << '\n';
  out << "adapt_interval=" << cfg.adapt_interval << '\n';
  out << "adapt_threshold_step=" << cfg.adapt_threshold_step << '\n';
  out << "adapt_refusal_frac=" << cfg.adapt_refusal_frac << '\n';
  out << "adapt_hot_conflicts=" << cfg.adapt_hot_conflicts << '\n';
  for (const FaultWindow& window : cfg.faults.windows) {
    out << "fault=" << format_fault_window(window) << '\n';
  }
}

}  // namespace hls
