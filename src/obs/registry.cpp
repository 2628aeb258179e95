#include "obs/registry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/assert.hpp"

namespace hls::obs {

namespace {

MetricEntry make_base(const std::string& prefix, MetricName name,
                      const char* unit, MetricKind kind) {
  MetricEntry e;
  e.name = prefix + name.c_str();
  e.unit = unit;
  e.kind = kind;
  return e;
}

}  // namespace

void Registry::Scope::counter(MetricName name, std::uint64_t value,
                              const char* unit) const {
  MetricEntry e = make_base(prefix_, name, unit, MetricKind::Counter);
  e.count = value;
  reg_->add(std::move(e));
}

void Registry::Scope::gauge(MetricName name, double value,
                            const char* unit) const {
  MetricEntry e = make_base(prefix_, name, unit, MetricKind::Gauge);
  e.value = value;
  reg_->add(std::move(e));
}

void Registry::Scope::stat(MetricName name, const SampleStat& s,
                           const char* unit) const {
  MetricEntry e = make_base(prefix_, name, unit, MetricKind::Stat);
  e.count = s.count();
  if (s.count() > 0) {
    e.mean = s.mean();
    e.stddev = s.stddev();
    e.min = s.min();
    e.max = s.max();
    e.sum = s.sum();
  }
  reg_->add(std::move(e));
}

void Registry::Scope::time_weighted(MetricName name, double average,
                                    double current, const char* unit) const {
  MetricEntry e = make_base(prefix_, name, unit, MetricKind::TimeWeighted);
  e.average = average;
  e.value = current;
  reg_->add(std::move(e));
}

void Registry::Scope::histogram(MetricName name, const Histogram& h,
                                const char* unit) const {
  MetricEntry e = make_base(prefix_, name, unit, MetricKind::Histogram);
  e.bin_width = h.bin_width();
  e.bins.resize(h.num_bins());
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < h.num_bins(); ++b) {
    e.bins[b] = h.bin_count(b);
    total += e.bins[b];
  }
  e.overflow = h.overflow();
  e.count = total + e.overflow;
  reg_->add(std::move(e));
}

void Registry::Scope::bucket_counter(MetricName name, std::size_t bucket,
                                     std::uint64_t value,
                                     const char* unit) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, ".%zu", bucket);
  MetricEntry e;
  e.name = prefix_ + name.c_str() + buf;
  e.unit = unit;
  e.kind = MetricKind::Counter;
  e.count = value;
  reg_->add(std::move(e));
}

Registry::Scope Registry::site(int index) {
  HLS_ASSERT(index >= 0, "Registry::site index must be non-negative");
  char buf[32];
  std::snprintf(buf, sizeof buf, "site%d.", index);
  return Scope(this, buf);
}

const MetricEntry* Registry::find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

void Registry::clear() {
  entries_.clear();
  index_.clear();
}

void Registry::add(MetricEntry entry) {
  auto [it, inserted] = index_.emplace(entry.name, entries_.size());
  HLS_ASSERT(inserted, "duplicate metric name registered");
  (void)it;
  entries_.push_back(std::move(entry));
}

void write_json_number(std::ostream& out, double v) {
  HLS_ASSERT(std::isfinite(v), "non-finite value in registry JSON");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.write(buf, res.ptr - buf);
}

void write_json_string(std::ostream& out, const std::string& s) {
  out.put('"');
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out.put(c);
        }
    }
  }
  out.put('"');
}

namespace {

void write_entry_json(std::ostream& out, const MetricEntry& e) {
  // Keys inside each entry are emitted in alphabetical order, matching the
  // sorted-name canonical form of the enclosing objects.
  out.put('{');
  switch (e.kind) {
    case MetricKind::Counter:
      out << "\"unit\":";
      write_json_string(out, e.unit);
      out << ",\"value\":" << e.count;
      break;
    case MetricKind::Gauge:
      out << "\"unit\":";
      write_json_string(out, e.unit);
      out << ",\"value\":";
      write_json_number(out, e.value);
      break;
    case MetricKind::Stat:
      out << "\"count\":" << e.count << ",\"max\":";
      write_json_number(out, e.max);
      out << ",\"mean\":";
      write_json_number(out, e.mean);
      out << ",\"min\":";
      write_json_number(out, e.min);
      out << ",\"stddev\":";
      write_json_number(out, e.stddev);
      out << ",\"sum\":";
      write_json_number(out, e.sum);
      out << ",\"unit\":";
      write_json_string(out, e.unit);
      break;
    case MetricKind::TimeWeighted:
      out << "\"average\":";
      write_json_number(out, e.average);
      out << ",\"current\":";
      write_json_number(out, e.value);
      out << ",\"unit\":";
      write_json_string(out, e.unit);
      break;
    case MetricKind::Histogram:
      out << "\"bin_width\":";
      write_json_number(out, e.bin_width);
      out << ",\"bins\":[";
      for (std::size_t b = 0; b < e.bins.size(); ++b) {
        if (b != 0) out.put(',');
        out << e.bins[b];
      }
      out << "],\"overflow\":" << e.overflow << ",\"total\":" << e.count
          << ",\"unit\":";
      write_json_string(out, e.unit);
      break;
  }
  out.put('}');
}

}  // namespace

void Registry::write_json(std::ostream& out) const {
  // Group names in alphabetical order; MetricKind values chosen to match.
  static constexpr const char* kGroups[] = {"counters", "gauges", "histograms",
                                            "stats", "time_weighted"};
  static constexpr MetricKind kGroupKind[] = {
      MetricKind::Counter, MetricKind::Gauge, MetricKind::Histogram,
      MetricKind::Stat, MetricKind::TimeWeighted};

  std::vector<const MetricEntry*> sorted;
  sorted.reserve(entries_.size());
  for (const MetricEntry& e : entries_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const MetricEntry* a, const MetricEntry* b) {
              return a->name < b->name;
            });

  out.put('{');
  for (std::size_t g = 0; g < 5; ++g) {
    if (g != 0) out.put(',');
    out.put('"');
    out << kGroups[g];
    out << "\":{";
    bool first = true;
    for (const MetricEntry* e : sorted) {
      if (e->kind != kGroupKind[g]) continue;
      if (!first) out.put(',');
      first = false;
      write_json_string(out, e->name);
      out.put(':');
      write_entry_json(out, *e);
    }
    out.put('}');
  }
  out.put('}');
}

}  // namespace hls::obs
