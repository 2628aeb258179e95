#include "core/trace.hpp"

#include <ostream>

namespace hls {

const char* TraceWriter::header() {
  return "txn_id,class,route,home_site,arrival,completion,response_time,runs,"
         "aborts_preempted,aborts_invalidated,aborts_auth_refused,"
         "aborts_deadlock,aborts_ship_timeout,aborts_crash";
}

TraceWriter::TraceWriter(std::ostream& out) : out_(out) { out_ << header() << '\n'; }

void TraceWriter::attach(HybridSystem& system) { system.add_trace_sink(this); }

void TraceWriter::on_event(const obs::Event& event) {
  out_ << event.txn << ',' << (event.cls == TxnClass::A ? 'A' : 'B') << ','
       << (event.route == Route::Local ? "local" : "central") << ','
       << event.home_site << ',' << event.arrival_time << ',' << event.time
       << ',' << event.response_time << ',' << event.runs;
  for (int i = 0; i < static_cast<int>(AbortCause::kCount); ++i) {
    out_ << ',' << event.aborts[i];
  }
  out_ << '\n';
  ++rows_;
}

}  // namespace hls
