#include "core/trace_replay.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/random.hpp"
#include "workload/txn_factory.hpp"

namespace hls {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

bool parse_locks(const std::string& field, std::vector<LockNeed>* out,
                 const SystemConfig& cfg, std::string* error) {
  std::stringstream ss(field);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos || colon + 2 != item.size()) {
      return fail(error, "malformed lock spec: " + item);
    }
    char* end = nullptr;
    const unsigned long id = std::strtoul(item.c_str(), &end, 10);
    if (end != item.c_str() + colon || id >= cfg.lockspace) {
      return fail(error, "bad lock id in: " + item);
    }
    const char mode = item[colon + 1];
    if (mode != 'S' && mode != 'X') {
      return fail(error, "lock mode must be S or X: " + item);
    }
    out->push_back(LockNeed{static_cast<LockId>(id),
                            mode == 'X' ? LockMode::Exclusive : LockMode::Shared});
  }
  if (out->empty()) {
    return fail(error, "empty lock list");
  }
  return true;
}

}  // namespace

std::optional<std::vector<TraceArrival>> parse_trace(std::istream& in,
                                                     const SystemConfig& cfg,
                                                     std::string* error) {
  std::vector<TraceArrival> trace;
  std::string line;
  std::size_t line_no = 0;
  double last_time = 0.0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    std::istringstream fields(line);
    TraceArrival arrival;
    std::string cls;
    if (!(fields >> arrival.time >> arrival.site >> cls)) {
      fail(error, "line " + std::to_string(line_no) + ": expected <time> <site> <class>");
      return std::nullopt;
    }
    if (arrival.time < 0.0) {
      fail(error, "line " + std::to_string(line_no) + ": time is negative");
      return std::nullopt;
    }
    if (arrival.time < last_time) {
      fail(error, "line " + std::to_string(line_no) + ": time decreases");
      return std::nullopt;
    }
    last_time = arrival.time;
    if (arrival.site < 0 || arrival.site >= cfg.num_sites) {
      fail(error, "line " + std::to_string(line_no) + ": site out of range");
      return std::nullopt;
    }
    if (cls == "A") {
      arrival.cls = TxnClass::A;
    } else if (cls == "B") {
      arrival.cls = TxnClass::B;
    } else {
      fail(error, "line " + std::to_string(line_no) + ": class must be A or B");
      return std::nullopt;
    }
    std::string lock_field;
    if (fields >> lock_field) {
      if (!parse_locks(lock_field, &arrival.locks, cfg, error)) {
        if (error != nullptr) {
          *error = "line " + std::to_string(line_no) + ": " + *error;
        }
        return std::nullopt;
      }
    }
    trace.push_back(std::move(arrival));
  }
  return trace;
}

std::optional<std::vector<TraceArrival>> parse_trace(const std::string& text,
                                                     const SystemConfig& cfg,
                                                     std::string* error) {
  std::istringstream in(text);
  return parse_trace(in, cfg, error);
}

std::size_t replay_trace(HybridSystem& system,
                         const std::vector<TraceArrival>& trace) {
  const SystemConfig& cfg = system.config();
  // Factory for sampling what the trace leaves unspecified (access
  // patterns, I/O flags). Seeded independently of the system's own stream.
  auto factory = std::make_shared<TxnFactory>(cfg, Rng(cfg.seed ^ 0x7247CEULL));
  auto rng = std::make_shared<Rng>(cfg.seed ^ 0x10F1A65ULL);

  std::size_t scheduled = 0;
  for (const TraceArrival& arrival : trace) {
    system.simulator().schedule_at(
        arrival.time, [&system, factory, rng, arrival] {
          Transaction txn =
              factory->make_of_class(arrival.cls, arrival.site,
                                     system.simulator().now());
          if (!arrival.locks.empty()) {
            txn.locks = arrival.locks;
            txn.call_io.clear();
            for (std::size_t i = 0; i < txn.locks.size(); ++i) {
              txn.call_io.push_back(rng->bernoulli(system.config().prob_call_io));
            }
          }
          system.inject_transaction(std::move(txn));
        });
    ++scheduled;
  }
  return scheduled;
}

void write_trace(std::ostream& out, const std::vector<TraceArrival>& trace) {
  out << "# hybridls arrival trace: <time> <site> <class> [id:mode,...]\n";
  for (const TraceArrival& arrival : trace) {
    out << arrival.time << ' ' << arrival.site << ' '
        << (arrival.cls == TxnClass::A ? 'A' : 'B');
    for (std::size_t i = 0; i < arrival.locks.size(); ++i) {
      out << (i == 0 ? ' ' : ',') << arrival.locks[i].id << ':'
          << (arrival.locks[i].mode == LockMode::Exclusive ? 'X' : 'S');
    }
    out << '\n';
  }
}

}  // namespace hls
