// Unit tests for the metrics registry (src/common/metrics): registration
// semantics, path validation, snapshot/diff/merge, reset-keeps-structure
// (the property the machine's cached instrument pointers rely on), and the
// JSON emitter/validator pair.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "obs/njson.hpp"

namespace tcfpn::metrics {
namespace {

// ---- Registration & path validation --------------------------------------

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter& a = reg.counter("net/packets");
  Counter& b = reg.counter("net/packets");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("net/packets"));
  EXPECT_FALSE(reg.contains("net"));
}

TEST(MetricsRegistryTest, KindMismatchFaults) {
  MetricsRegistry reg;
  reg.counter("x/events");
  EXPECT_THROW(reg.accumulator("x/events"), SimError);
  EXPECT_THROW(reg.histogram("x/events", 0, 1, 4), SimError);
}

TEST(MetricsRegistryTest, HistogramShapeMismatchFaults) {
  MetricsRegistry reg;
  reg.histogram("net/latency", 0.0, 128.0, 32);
  EXPECT_NO_THROW(reg.histogram("net/latency", 0.0, 128.0, 32));
  EXPECT_THROW(reg.histogram("net/latency", 0.0, 64.0, 32), SimError);
  EXPECT_THROW(reg.histogram("net/latency", 0.0, 128.0, 16), SimError);
}

TEST(MetricsRegistryTest, MalformedPathsFault) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter(""), SimError);
  EXPECT_THROW(reg.counter("/leading"), SimError);
  EXPECT_THROW(reg.counter("trailing/"), SimError);
  EXPECT_THROW(reg.counter("a//b"), SimError);
}

TEST(MetricsRegistryTest, LeafCannotBecomeBranch) {
  MetricsRegistry reg;
  reg.counter("sched/steps");
  // Nesting under an existing leaf, or registering a leaf that is a prefix
  // of an existing path, would make the JSON tree ambiguous.
  EXPECT_THROW(reg.counter("sched/steps/retries"), SimError);
  EXPECT_THROW(reg.counter("sched"), SimError);
}

// ---- Snapshot, diff ------------------------------------------------------

TEST(MetricsSnapshotTest, CapturesEveryInstrumentKind) {
  MetricsRegistry reg;
  reg.counter("a/count").add(3);
  Accumulator& acc = reg.accumulator("a/depth");
  acc.add(1.0);
  acc.add(3.0);
  reg.histogram("a/lat", 0.0, 10.0, 5).add(4.0);

  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.entries.size(), 3u);
  EXPECT_EQ(s.entries.at("a/count").count, 3u);
  EXPECT_EQ(s.entries.at("a/depth").count, 2u);
  EXPECT_DOUBLE_EQ(s.entries.at("a/depth").mean, 2.0);
  EXPECT_EQ(s.entries.at("a/lat").buckets.size(), 5u);
  EXPECT_EQ(s.entries.at("a/lat").buckets[2], 1u);
}

TEST(MetricsSnapshotTest, EqualitySeesSingleEventDifference) {
  MetricsRegistry a, b;
  a.counter("x/n").add(5);
  b.counter("x/n").add(5);
  EXPECT_TRUE(a.snapshot() == b.snapshot());
  b.counter("x/n").add();
  EXPECT_FALSE(a.snapshot() == b.snapshot());
}

TEST(MetricsSnapshotTest, DiffSubtractsMonotoneParts) {
  MetricsRegistry reg;
  Counter& n = reg.counter("x/n");
  Histogram& h = reg.histogram("x/h", 0.0, 4.0, 2);
  n.add(10);
  h.add(1.0);
  const MetricsSnapshot before = reg.snapshot();
  n.add(7);
  h.add(3.0);
  const MetricsSnapshot after = reg.snapshot();

  const auto leaf = [&](const char* path) {
    return diff(before.entries.at(path), after.entries.at(path));
  };
  EXPECT_EQ(leaf("x/n").count, 7u);
  const MetricValue dh = leaf("x/h");
  EXPECT_EQ(dh.count, 1u);
  EXPECT_EQ(dh.buckets[0], 0u);
  EXPECT_EQ(dh.buckets[1], 1u);
}

// snapshot_into reuses the leaves of a snapshot with the same paths and
// rebuilds one without; either way the result equals snapshot().
TEST(MetricsSnapshotTest, SnapshotIntoEqualsSnapshot) {
  MetricsRegistry reg;
  reg.counter("a/count").add(3);
  Accumulator& acc = reg.accumulator("a/depth");
  Histogram& h = reg.histogram("a/lat", 0.0, 10.0, 5);
  MetricsSnapshot snap;
  reg.snapshot_into(snap);
  EXPECT_TRUE(snap == reg.snapshot());

  const std::uint64_t* buckets = snap.entries.at("a/lat").buckets.data();
  acc.add(2.0);
  h.add(4.0);
  reg.snapshot_into(snap);  // same paths: refreshed in place
  EXPECT_TRUE(snap == reg.snapshot());
  EXPECT_EQ(snap.entries.at("a/lat").buckets.data(), buckets);

  reg.counter("a/b").add();  // a new path: rebuilt
  reg.snapshot_into(snap);
  EXPECT_TRUE(snap == reg.snapshot());
  MetricsSnapshot other = MetricsRegistry().snapshot();
  other.entries["z/gone"].count = 9;  // a different path, same count
  MetricsRegistry one;
  one.counter("z/kept").add(2);
  one.snapshot_into(other);
  EXPECT_TRUE(other == one.snapshot());
}

// ---- Merge ---------------------------------------------------------------

TEST(MetricsRegistryTest, MergeFoldsEveryKind) {
  MetricsRegistry a, b;
  a.counter("m/n").add(2);
  b.counter("m/n").add(3);
  b.counter("m/only_b").add(1);  // missing in `a` → created by merge
  a.accumulator("m/acc").add(1.0);
  b.accumulator("m/acc").add(3.0);
  a.histogram("m/h", 0.0, 4.0, 2).add(1.0);
  b.histogram("m/h", 0.0, 4.0, 2).add(3.0);

  a.merge(b);
  const MetricsSnapshot s = a.snapshot();
  EXPECT_EQ(s.entries.at("m/n").count, 5u);
  EXPECT_EQ(s.entries.at("m/only_b").count, 1u);
  EXPECT_EQ(s.entries.at("m/acc").count, 2u);
  EXPECT_DOUBLE_EQ(s.entries.at("m/acc").mean, 2.0);
  EXPECT_EQ(s.entries.at("m/h").count, 2u);
  EXPECT_EQ(s.entries.at("m/h").buckets[1], 1u);
}

TEST(MetricsRegistryTest, MergeKindMismatchFaults) {
  MetricsRegistry a, b;
  a.counter("m/x");
  b.accumulator("m/x").add(1.0);
  EXPECT_THROW(a.merge(b), SimError);
}

// ---- JSON emitter --------------------------------------------------------

// Both exports write doubles with std::to_chars; the bytes must stay those
// of printf's "%.17g", and a non-finite value writes null.
TEST(MetricsJsonTest, DoublesWriteThePrintfG17Digits) {
  std::mt19937_64 rng(21);
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, -2.5, 0.1, 1e17, 1e-300,
                                4.9e-324, 1.7976931348623157e308,
                                0.24999999999999958, 4.4358974358974361,
                                1e15 - 1, 1e15, -1e15 + 1, -1e15, 1e16 + 2,
                                9007199254740993.0, 99999999999999984.0};
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    values.push_back(d);  // every exponent, subnormals, inf and nan included
    values.push_back(static_cast<double>(bits >> 20));  // integral values
    values.push_back(-static_cast<double>(bits >> 14));
  }
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  for (const double v : values) {
    char want[40];
    std::snprintf(want, sizeof want, "%.17g", v);
    std::string got;
    append_number(got, v);
    EXPECT_EQ(got, std::isfinite(v) ? std::string(want) : "null") << want;
  }
}

TEST(MetricsJsonTest, EscapeHandlesControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
}

// Fuzz-ish audit for the NDJSON framing contract (DESIGN.md §13): a stream
// line must be one "\n"-framed JSON document, so json_escape has to remove
// EVERY control character — an embedded newline in a PRINT payload or log
// message would otherwise split one record into two junk lines. Drive every
// single byte plus deterministic pseudo-random byte strings through the
// escaper and require (a) no control bytes survive, (b) the result parses
// as a JSON string.
TEST(MetricsJsonTest, EscapeNeverLeaksControlBytesIntoFraming) {
  // Every byte value alone.
  for (int b = 0; b < 256; ++b) {
    const std::string esc = json_escape(std::string(1, static_cast<char>(b)));
    for (unsigned char c : esc) {
      EXPECT_GE(c, 0x20u) << "byte " << b << " escaped to control byte";
      EXPECT_NE(c, static_cast<unsigned char>('\n')) << "byte " << b;
    }
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::parse_json("\"" + esc + "\"", &v, &err))
        << "byte " << b << ": " << err;
    EXPECT_EQ(v.str(), std::string(1, static_cast<char>(b))) << "byte " << b;
  }
  // Pseudo-random byte soup, worst-case-heavy: quotes, backslashes, every
  // control character, multi-byte runs. xorshift keeps it deterministic.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 64; ++round) {
    std::string raw;
    for (int i = 0; i < 128; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // Bias half the bytes into the troublesome range [0, 0x20] ∪ {", \}.
      const unsigned char pick = static_cast<unsigned char>(x);
      raw.push_back((x >> 8) % 2 == 0
                        ? static_cast<char>(pick % 0x23)
                        : static_cast<char>(pick));
    }
    const std::string esc = json_escape(raw);
    for (unsigned char c : esc) EXPECT_GE(c, 0x20u);
    EXPECT_EQ(esc.find('\n'), std::string::npos);
    EXPECT_EQ(esc.find('\r'), std::string::npos);
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::parse_json("\"" + esc + "\"", &v, &err)) << err;
    EXPECT_EQ(v.str(), raw);
  }
}

TEST(MetricsJsonTest, SnapshotToJsonIsValidAndNested) {
  MetricsRegistry reg;
  reg.counter("net/packets").add(7);
  Accumulator& acc = reg.accumulator("sched/occupancy");
  acc.add(2.0);
  reg.histogram("net/latency", 0.0, 8.0, 4).add(3.0);
  reg.accumulator("mem/depth");  // empty accumulator must still emit

  const std::string j = reg.snapshot().to_json();
  obs::JsonValue v;
  std::string err;
  EXPECT_TRUE(obs::parse_json(j, &v, &err)) << err << "\n" << j;
  // Path segments become nested objects.
  EXPECT_NE(j.find("\"net\""), std::string::npos);
  EXPECT_NE(j.find("\"packets\""), std::string::npos);
  EXPECT_NE(j.find("\"counter\""), std::string::npos);
  EXPECT_NE(j.find("\"histogram\""), std::string::npos);
  // Embedding after a key (the --metrics-json composition) stays valid.
  const std::string doc = "{\"metrics\": " + reg.snapshot().to_json(2) + "}";
  EXPECT_TRUE(obs::parse_json(doc, &v, &err)) << err;
}

}  // namespace
}  // namespace tcfpn::metrics
