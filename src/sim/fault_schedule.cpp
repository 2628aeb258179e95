#include "sim/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <tuple>

#include "util/table.hpp"

namespace hls {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

bool window_ok(const FaultWindow& w, int num_sites, std::string* error) {
  if (w.start < 0.0) {
    return fail(error, "fault window start must be non-negative");
  }
  if (w.duration < 0.0) {
    return fail(error, "fault window duration must be non-negative");
  }
  if (w.kind != FaultKind::CentralOutage &&
      (w.site < -1 || w.site >= num_sites)) {
    return fail(error, "fault window site " + std::to_string(w.site) +
                           " out of range (have " + std::to_string(num_sites) +
                           " sites; -1 means all)");
  }
  if (w.kind == FaultKind::LinkDegrade) {
    if (w.delay_factor < 0.0) {
      return fail(error, "link_degrade delay factor must be non-negative");
    }
    if (w.loss_prob < 0.0 || w.loss_prob >= 1.0) {
      // p = 1 would retransmit forever; the protocol needs eventual delivery.
      return fail(error, "link_degrade loss probability must be in [0, 1)");
    }
  }
  if (w.kind == FaultKind::MsgFault) {
    if (w.dup_prob < 0.0 || w.dup_prob >= 1.0 || w.reorder_prob < 0.0 ||
        w.reorder_prob >= 1.0 || w.spike_prob < 0.0 || w.spike_prob >= 1.0) {
      return fail(error, "msg_fault probabilities must be in [0, 1)");
    }
    if (w.spike_factor < 0.0) {
      return fail(error, "msg_fault spike factor must be non-negative");
    }
  }
  return true;
}

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

std::vector<std::string> split_colons(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t colon = text.find(':', begin);
    if (colon == std::string::npos) {
      parts.push_back(text.substr(begin));
      return parts;
    }
    parts.push_back(text.substr(begin, colon - begin));
    begin = colon + 1;
  }
}

bool parse_site(const std::string& text, int* out, std::string* error) {
  if (text == "all") {
    *out = -1;
    return true;
  }
  double v = 0.0;
  if (!parse_number(text, &v) || v != static_cast<int>(v) || v < 0) {
    return fail(error, "fault site must be a site index or 'all', got '" +
                           text + "'");
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

bool FaultScheduleConfig::message_faults() const {
  if (dup_prob > 0.0 || reorder_prob > 0.0 || spike_prob > 0.0) {
    return true;
  }
  for (const FaultWindow& w : windows) {
    if (w.kind == FaultKind::MsgFault) {
      return true;
    }
  }
  return false;
}

bool FaultScheduleConfig::validate(int num_sites, std::string* error) const {
  for (const FaultWindow& w : windows) {
    if (!window_ok(w, num_sites, error)) {
      return false;
    }
  }
  if (random_link_outage_rate > 0.0 && random_horizon > 0.0 &&
      random_link_outage_mean <= 0.0) {
    return fail(error,
                "random link outages need a positive mean duration "
                "(fault_random_link_duration)");
  }
  return true;
}

FaultSchedule::FaultSchedule(const FaultScheduleConfig& cfg, int num_sites,
                             Rng rng) {
  auto push = [this](const FaultWindow& w) {
    FaultTransition begin;
    begin.time = w.start;
    begin.kind = w.kind;
    begin.site = w.site;
    begin.begin = true;
    begin.delay_factor = w.delay_factor;
    begin.loss_prob = w.loss_prob;
    begin.dup_prob = w.dup_prob;
    begin.reorder_prob = w.reorder_prob;
    begin.spike_prob = w.spike_prob;
    begin.spike_factor = w.spike_factor;
    transitions_.push_back(begin);

    FaultTransition end = begin;
    end.time = w.start + w.duration;
    end.begin = false;
    transitions_.push_back(end);
  };

  for (const FaultWindow& w : cfg.windows) {
    push(w);
  }

  if (cfg.random_link_outage_rate > 0.0 && cfg.random_horizon > 0.0) {
    // One sequential stream per site keeps windows on a link disjoint and the
    // timeline independent of how many other sites fail.
    for (int s = 0; s < num_sites; ++s) {
      Rng site_rng = rng.fork();  // fault.site-window
      double t = site_rng.exponential(cfg.random_link_outage_rate);
      while (t < cfg.random_horizon) {
        FaultWindow w;
        w.kind = FaultKind::LinkOutage;
        w.site = s;
        w.start = t;
        w.duration = site_rng.exponential(1.0 / cfg.random_link_outage_mean);
        push(w);
        t = w.start + w.duration +
            site_rng.exponential(cfg.random_link_outage_rate);
      }
    }
  }

  // Time-sorted; at equal times ends apply before begins so back-to-back
  // windows leave the fault active through the boundary instant.
  std::stable_sort(transitions_.begin(), transitions_.end(),
                   [](const FaultTransition& a, const FaultTransition& b) {
                     return std::make_tuple(a.time, a.begin,
                                            static_cast<int>(a.kind), a.site) <
                            std::make_tuple(b.time, b.begin,
                                            static_cast<int>(b.kind), b.site);
                   });
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::CentralOutage:
      return "central_outage";
    case FaultKind::SiteOutage:
      return "site_outage";
    case FaultKind::LinkOutage:
      return "link_outage";
    case FaultKind::LinkDegrade:
      return "link_degrade";
    case FaultKind::MsgFault:
      return "msg_fault";
  }
  return "unknown";
}

bool parse_fault_window(const std::string& text, FaultWindow* out,
                        std::string* error) {
  const std::vector<std::string> parts = split_colons(text);
  FaultWindow w;

  const std::string& kind = parts[0];
  if (kind == "central_outage") {
    if (parts.size() != 3) {
      return fail(error, "central_outage takes <start>:<duration>, got '" +
                             text + "'");
    }
    w.kind = FaultKind::CentralOutage;
    if (!parse_number(parts[1], &w.start) ||
        !parse_number(parts[2], &w.duration)) {
      return fail(error, "bad central_outage times in '" + text + "'");
    }
  } else if (kind == "site_outage" || kind == "link_outage") {
    if (parts.size() != 4) {
      return fail(error, kind + " takes <site|all>:<start>:<duration>, got '" +
                             text + "'");
    }
    w.kind = kind == "site_outage" ? FaultKind::SiteOutage
                                   : FaultKind::LinkOutage;
    if (!parse_site(parts[1], &w.site, error)) {
      return false;
    }
    if (!parse_number(parts[2], &w.start) ||
        !parse_number(parts[3], &w.duration)) {
      return fail(error, "bad " + kind + " times in '" + text + "'");
    }
  } else if (kind == "link_degrade") {
    if (parts.size() != 6) {
      return fail(error,
                  "link_degrade takes "
                  "<site|all>:<start>:<duration>:<delay_factor>:<loss_prob>, "
                  "got '" +
                      text + "'");
    }
    w.kind = FaultKind::LinkDegrade;
    if (!parse_site(parts[1], &w.site, error)) {
      return false;
    }
    if (!parse_number(parts[2], &w.start) ||
        !parse_number(parts[3], &w.duration) ||
        !parse_number(parts[4], &w.delay_factor) ||
        !parse_number(parts[5], &w.loss_prob)) {
      return fail(error, "bad link_degrade numbers in '" + text + "'");
    }
  } else if (kind == "msg_fault") {
    if (parts.size() != 8) {
      return fail(error,
                  "msg_fault takes <site|all>:<start>:<duration>:<dup_prob>:"
                  "<reorder_prob>:<spike_prob>:<spike_factor>, got '" +
                      text + "'");
    }
    w.kind = FaultKind::MsgFault;
    if (!parse_site(parts[1], &w.site, error)) {
      return false;
    }
    if (!parse_number(parts[2], &w.start) ||
        !parse_number(parts[3], &w.duration) ||
        !parse_number(parts[4], &w.dup_prob) ||
        !parse_number(parts[5], &w.reorder_prob) ||
        !parse_number(parts[6], &w.spike_prob) ||
        !parse_number(parts[7], &w.spike_factor)) {
      return fail(error, "bad msg_fault numbers in '" + text + "'");
    }
  } else {
    return fail(error, "unknown fault kind '" + kind +
                           "' (central_outage|site_outage|link_outage|"
                           "link_degrade|msg_fault)");
  }

  // Window-local range checks run here so config files get a clear message
  // on the offending line; the site-count check needs the full config and
  // runs in FaultScheduleConfig::validate.
  if (!window_ok(w, w.site < 0 ? 1 : w.site + 1, error)) {
    return false;
  }
  *out = w;
  return true;
}

std::string format_fault_window(const FaultWindow& w) {
  std::ostringstream out;
  out << fault_kind_name(w.kind) << ':';
  if (w.kind != FaultKind::CentralOutage) {
    if (w.site < 0) {
      out << "all";
    } else {
      out << w.site;
    }
    out << ':';
  }
  // Shortest round-trip form: a described config replays the same run.
  const auto num = format_shortest;
  out << num(w.start) << ':' << num(w.duration);
  if (w.kind == FaultKind::LinkDegrade) {
    out << ':' << num(w.delay_factor) << ':' << num(w.loss_prob);
  }
  if (w.kind == FaultKind::MsgFault) {
    out << ':' << num(w.dup_prob) << ':' << num(w.reorder_prob) << ':'
        << num(w.spike_prob) << ':' << num(w.spike_factor);
  }
  return out.str();
}

}  // namespace hls
