#include "core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <ostream>

#include "util/assert.hpp"

namespace hls {

void ReportCollector::on_event(const obs::Event& event) {
  switch (event.kind) {
    case obs::EventKind::Span: {
      ReportSpan span;
      span.phase = event.span_phase;
      span.begin = event.span_begin;
      span.end = event.time;
      span.track = event.track;
      span.run = event.runs;
      open_[event.txn].spans.push_back(span);
      return;
    }
    case obs::EventKind::Abort: {
      ReportAbort abort;
      abort.cause = event.cause;
      abort.time = event.time;
      abort.winner = event.winner;
      abort.winner_site = event.winner_site;
      abort.wasted_cpu = event.wasted_cpu;
      abort.wasted_io = event.wasted_io;
      open_[event.txn].aborts.push_back(abort);
      return;
    }
    case obs::EventKind::Completion: {
      auto it = open_.find(event.txn);
      const bool keep =
          top_k_ > 0 &&
          (static_cast<int>(slowest_.size()) < top_k_ ||
           event.response_time > slowest_.back().response_time);
      if (keep) {
        SlowTxn slow;
        slow.id = event.txn;
        slow.cls = event.cls;
        slow.route = event.route;
        slow.home_site = event.home_site;
        slow.runs = event.runs;
        slow.arrival_time = event.arrival_time;
        slow.response_time = event.response_time;
        slow.wasted_cpu = event.wasted_cpu;
        slow.wasted_io = event.wasted_io;
        if (it != open_.end()) {
          slow.spans = std::move(it->second.spans);
          slow.aborts = std::move(it->second.aborts);
        }
        const auto pos = std::upper_bound(
            slowest_.begin(), slowest_.end(), slow.response_time,
            [](double rt, const SlowTxn& s) { return rt > s.response_time; });
        slowest_.insert(pos, std::move(slow));
        if (static_cast<int>(slowest_.size()) > top_k_) {
          slowest_.pop_back();
        }
      }
      if (it != open_.end()) {
        open_.erase(it);
      }
      return;
    }
    default:
      return;  // edges carry no per-txn state the report renders
  }
}

namespace {

const char* track_name(int track, char* buf) {
  if (track == obs::kCentralTrack) {
    return "central";
  }
  std::snprintf(buf, 16, "site %d", track);
  return buf;
}

void phase_table(std::ostream& out, const Metrics& m) {
  out << "phase breakdown (mean seconds per completion)\n";
  const double total = m.rt_all.mean();
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    const double mean = m.rt_phase[static_cast<std::size_t>(p)].mean();
    out << "  " << std::left << std::setw(12)
        << obs::phase_name(static_cast<obs::Phase>(p)) << std::right
        << std::setw(12) << std::fixed << std::setprecision(6) << mean
        << std::setw(9) << std::setprecision(1)
        << (total > 0.0 ? 100.0 * mean / total : 0.0) << "%\n";
  }
  out << "  " << std::left << std::setw(12) << "total" << std::right
      << std::setw(12) << std::setprecision(6) << total << "\n";
}

void abort_breakdown(std::ostream& out, const Metrics& m) {
  out << "abort causes\n";
  out << "  " << std::left << std::setw(14) << "cause" << std::right
      << std::setw(8) << "count" << std::setw(14) << "wasted_cpu"
      << std::setw(14) << "wasted_io" << "\n";
  for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c) {
    const auto cause = static_cast<AbortCause>(c);
    out << "  " << std::left << std::setw(14) << obs::abort_cause_name(cause)
        << std::right << std::setw(8) << m.aborts(cause) << std::setw(14)
        << std::fixed << std::setprecision(6) << m.wasted_cpu_by_cause[c]
        << std::setw(14) << m.wasted_io_by_cause[c] << "\n";
  }
  out << "  " << std::left << std::setw(14) << "total" << std::right
      << std::setw(8) << m.aborts_total() << std::setw(14)
      << m.wasted_cpu_total() << std::setw(14) << m.wasted_io_total() << "\n";
  out << "  with identified winner: " << m.aborts_with_winner() << " of "
      << m.aborts_total() << "\n";
}

void conflict_matrix(std::ostream& out, const Metrics& m) {
  if (m.num_sites() == 0) {
    return;
  }
  out << "conflict matrix (rows: victim home site; columns: winner home "
         "site, `-` = no winner)\n";
  out << "  " << std::setw(6) << "";
  for (int w = 0; w < m.num_sites(); ++w) {
    out << std::setw(6) << w;
  }
  out << std::setw(6) << "-" << "\n";
  for (int v = 0; v < m.num_sites(); ++v) {
    out << "  " << std::setw(6) << v;
    for (int w = 0; w <= m.num_sites(); ++w) {
      out << std::setw(6) << m.conflict(v, w);
    }
    out << "\n";
  }
}

void wasted_totals(std::ostream& out, const Metrics& m) {
  out << "wasted work (aborted-attempt time)\n";
  out << std::fixed << std::setprecision(6);
  out << "  cpu seconds:      " << m.wasted_cpu_total() << "\n";
  out << "  io seconds:       " << m.wasted_io_total() << "\n";
  out << "  mean per txn:     " << m.wasted_per_txn.mean() << "\n";
  out << "  max per txn:      "
      << (m.wasted_per_txn.count() > 0 ? m.wasted_per_txn.max() : 0.0) << "\n";
}

void slowest_section(std::ostream& out, const ReportCollector& collector) {
  out << "slowest transactions (span trees)\n";
  if (collector.slowest().empty()) {
    out << "  (none completed)\n";
    return;
  }
  char buf[16];
  for (const ReportCollector::SlowTxn& slow : collector.slowest()) {
    out << "  txn " << slow.id << "  class "
        << (slow.cls == TxnClass::A ? 'A' : 'B') << "  "
        << (slow.route == Route::Local ? "local" : "central") << "  home "
        << slow.home_site << "  rt " << std::fixed << std::setprecision(6)
        << slow.response_time << "s  runs " << slow.runs << "  wasted "
        << slow.wasted_cpu + slow.wasted_io << "s\n";
    std::size_t next_abort = 0;
    int current_run = -1;
    for (const ReportSpan& span : slow.spans) {
      if (span.run != current_run) {
        current_run = span.run;
        out << "    run " << current_run << "\n";
        // Each abort closes one run; print it before the next run's spans.
        if (current_run > 1 && next_abort < slow.aborts.size()) {
          const ReportAbort& abort = slow.aborts[next_abort++];
          out << "      x " << obs::abort_cause_name(abort.cause) << " at "
              << std::setprecision(6) << abort.time;
          if (abort.winner != kInvalidTxn) {
            out << "  winner txn " << abort.winner << " (home "
                << abort.winner_site << ")";
          }
          out << "  wasted " << abort.wasted_cpu + abort.wasted_io << "s\n";
        }
      }
      out << "      " << std::left << std::setw(12)
          << obs::phase_name(span.phase) << std::right << " ["
          << std::setprecision(6) << span.begin << ", " << span.end << "] on "
          << track_name(span.track, buf) << "\n";
    }
  }
}

void controller_section(std::ostream& out,
                        const std::vector<ControllerDecision>& decisions) {
  out << "controller decisions (adaptive routing)\n";
  if (decisions.empty()) {
    out << "  (none)\n";
    return;
  }
  for (const ControllerDecision& d : decisions) {
    out << "  t=" << std::fixed << std::setprecision(3) << d.time << "  "
        << std::left << std::setw(15) << controller_decision_kind_name(d.kind)
        << std::right;
    if (d.site >= 0) {
      out << "site " << d.site << "  ";
    }
    if (d.kind == ControllerDecision::Kind::ThresholdStep) {
      out << std::setprecision(3) << d.old_value << " -> " << d.new_value
          << "  ";
    }
    out << d.evidence << "\n";
  }
}

}  // namespace

void write_run_report(std::ostream& out, const Metrics& metrics,
                      const ReportCollector* collector,
                      const std::vector<ControllerDecision>* decisions) {
  out << "=== run report ===\n";
  out << std::fixed << std::setprecision(3);
  out << "window: [" << metrics.measure_start << ", " << metrics.measure_end
      << "]  completions: " << metrics.completions
      << "  throughput: " << metrics.throughput() << " txn/s\n";
  out << "mean response: " << std::setprecision(6) << metrics.rt_all.mean()
      << "s  ship fraction: " << std::setprecision(3)
      << metrics.ship_fraction() << "  runs/txn: " << metrics.runs_per_txn()
      << "\n\n";
  phase_table(out, metrics);
  out << "\n";
  abort_breakdown(out, metrics);
  out << "\n";
  conflict_matrix(out, metrics);
  out << "\n";
  wasted_totals(out, metrics);
  if (decisions != nullptr) {
    out << "\n";
    controller_section(out, *decisions);
  }
  if (collector != nullptr) {
    out << "\n";
    slowest_section(out, *collector);
  }
  out.flush();
}

}  // namespace hls
