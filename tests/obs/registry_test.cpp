// obs::Registry unit tests: kinds, scope prefixes, the bucket_counter name
// composition, duplicate-name rejection, and the canonical JSON form the run
// artifact and hlsreport depend on (sorted groups/names, shortest-round-trip
// numbers, byte-stability under registration order).
#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/stats.hpp"

namespace hls {
namespace {

std::string json_of(const obs::Registry& reg) {
  std::ostringstream out;
  reg.write_json(out);
  return out.str();
}

TEST(Registry, KindsRoundTripThroughEntries) {
  obs::Registry reg;
  reg.root().counter("demo.completions", 42);
  reg.root().gauge("window.seconds", 12.5, "s");
  SampleStat s;
  s.add(1.0);
  s.add(3.0);
  reg.root().stat("rt.all", s, "s");
  reg.root().time_weighted("cpu.util", 0.25, 1.0, "fraction");
  Histogram h(0.5, 4);
  h.add(0.1);
  h.add(9.0);
  reg.root().histogram("rt.histogram", h, "s");

  EXPECT_EQ(reg.size(), 5u);
  const obs::MetricEntry* c = reg.find("demo.completions");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, obs::MetricKind::Counter);
  EXPECT_EQ(c->count, 42u);
  EXPECT_EQ(c->unit, "count");

  const obs::MetricEntry* st = reg.find("rt.all");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->count, 2u);
  EXPECT_DOUBLE_EQ(st->mean, 2.0);
  EXPECT_DOUBLE_EQ(st->sum, 4.0);
  EXPECT_DOUBLE_EQ(st->min, 1.0);
  EXPECT_DOUBLE_EQ(st->max, 3.0);

  const obs::MetricEntry* tw = reg.find("cpu.util");
  ASSERT_NE(tw, nullptr);
  EXPECT_DOUBLE_EQ(tw->average, 0.25);
  EXPECT_DOUBLE_EQ(tw->value, 1.0);

  const obs::MetricEntry* hg = reg.find("rt.histogram");
  ASSERT_NE(hg, nullptr);
  EXPECT_EQ(hg->bins.size(), 4u);
  EXPECT_EQ(hg->bins[0], 1u);
  EXPECT_EQ(hg->overflow, 1u);
  EXPECT_EQ(hg->count, 2u);

  EXPECT_EQ(reg.find("nope"), nullptr);
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(Registry, ScopesComposeTheOnlySanctionedPrefixes) {
  obs::Registry reg;
  reg.root().counter("demo.arrivals", 1);
  reg.central().counter("demo.arrivals", 2);
  reg.site(0).counter("demo.arrivals", 3);
  reg.site(12).counter("demo.arrivals", 4);
  EXPECT_EQ(reg.find("demo.arrivals")->count, 1u);
  EXPECT_EQ(reg.find("central.demo.arrivals")->count, 2u);
  EXPECT_EQ(reg.find("site0.demo.arrivals")->count, 3u);
  EXPECT_EQ(reg.find("site12.demo.arrivals")->count, 4u);
}

TEST(Registry, BucketCounterComposesIndexSuffix) {
  obs::Registry reg;
  const obs::Registry::Scope sc = reg.site(3);
  sc.bucket_counter("demo.heat", 0, 7);
  sc.bucket_counter("locks.heat", 15, 9, "accesses");
  EXPECT_EQ(reg.find("site3.demo.heat.0")->count, 7u);
  const obs::MetricEntry* e = reg.find("site3.locks.heat.15");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 9u);
  EXPECT_EQ(e->unit, "accesses");
}

TEST(RegistryDeathTest, DuplicateNameIsALibraryBug) {
  obs::Registry reg;
  reg.root().counter("demo.completions", 1);
  EXPECT_DEATH(reg.root().counter("demo.completions", 2),
               "duplicate metric name");
}

TEST(Registry, CanonicalJsonBytes) {
  obs::Registry reg;
  // Registered deliberately out of name order and with an interleaved kind
  // mix: the output must still come out grouped and sorted.
  reg.root().gauge("b.gauge", 0.5, "s");
  reg.root().counter("z.counter", 3);
  reg.root().counter("a.counter", 1);
  reg.root().time_weighted("a.tw", 2.0, 4.0, "jobs");
  EXPECT_EQ(json_of(reg),
            "{\"counters\":{"
            "\"a.counter\":{\"unit\":\"count\",\"value\":1},"
            "\"z.counter\":{\"unit\":\"count\",\"value\":3}},"
            "\"gauges\":{\"b.gauge\":{\"unit\":\"s\",\"value\":0.5}},"
            "\"histograms\":{},"
            "\"stats\":{},"
            "\"time_weighted\":{\"a.tw\":"
            "{\"average\":2,\"current\":4,\"unit\":\"jobs\"}}}");
}

TEST(Registry, JsonBytesIndependentOfRegistrationOrder) {
  obs::Registry fwd;
  obs::Registry rev;
  fwd.root().counter("a", 1);
  fwd.root().counter("b", 2);
  fwd.root().gauge("g", 3.25, "s");
  rev.root().gauge("g", 3.25, "s");
  rev.root().counter("b", 2);
  rev.root().counter("a", 1);
  EXPECT_EQ(json_of(fwd), json_of(rev));
}

TEST(Registry, NumberFormattingIsShortestRoundTrip) {
  std::ostringstream out;
  obs::write_json_number(out, 0.1);
  out.put(' ');
  obs::write_json_number(out, 3.0);
  out.put(' ');
  obs::write_json_number(out, -2.5e-9);
  EXPECT_EQ(out.str(), "0.1 3 -2.5e-09");
}

TEST(Registry, StringEscaping) {
  std::ostringstream out;
  obs::write_json_string(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out.str(), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(Registry, EmptyStatSerializesZeros) {
  obs::Registry reg;
  SampleStat empty;
  reg.root().stat("rt.shipped_a", empty, "s");
  EXPECT_EQ(json_of(reg),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},"
            "\"stats\":{\"rt.shipped_a\":{\"count\":0,\"max\":0,\"mean\":0,"
            "\"min\":0,\"stddev\":0,\"sum\":0,\"unit\":\"s\"}},"
            "\"time_weighted\":{}}");
}

}  // namespace
}  // namespace hls
