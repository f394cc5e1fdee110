// Structured telemetry: a hierarchical metrics registry.
//
// The paper's whole argument is quantitative — Table 1 counts steps and
// overheads per primitive, Figures 4-13 are schedules and cost curves — so
// the simulator needs first-class measurement, not a fixed handful of
// counters. MetricsRegistry holds named instruments addressed by
// slash-separated paths ("net/ejection_latency", "sched/slot_occupancy"):
//
//  - Counter      monotone 64-bit event/cycle count
//  - Accumulator  streaming moments (count/sum/min/max/mean/variance)
//  - Histogram    fixed-bucket distribution
//
// Determinism contract (DESIGN.md §4): registries support merge() in a
// caller-chosen order, because floating-point accumulator merges are
// order-sensitive bit-wise. The machine layer keeps its registry out of
// the groups' execution: a group counts lane operations as plain integers
// in the effect buffer (Machine::GroupCtx), added into the registry when
// the group finishes, in group order, and every accumulator and histogram
// is fed outside the groups' execution only — so metric values follow
// group order and never the order in which the groups ran.
//
// snapshot() freezes all instruments into plain values; diff() subtracts the
// monotone parts of two frozen leaves (the stream's window deltas); to_json()
// nests the path hierarchy into the machine-readable export behind
// --metrics-json.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace tcfpn::metrics {

/// Monotone event or cycle count.
class Counter {
 public:
  void add(std::uint64_t d = 1) { v_ += d; }
  std::uint64_t value() const { return v_; }
  void restore(std::uint64_t v) { v_ = v; }  ///< checkpoint restore only

 private:
  std::uint64_t v_ = 0;
};

enum class InstrumentKind : std::uint8_t {
  kCounter,
  kAccumulator,
  kHistogram,
};

const char* to_string(InstrumentKind k);

/// One instrument frozen into plain values. Which fields are meaningful
/// depends on `kind`; unused fields stay zero so equality is well-defined.
struct MetricValue {
  InstrumentKind kind = InstrumentKind::kCounter;
  std::uint64_t count = 0;  ///< counter value / accumulator n / histogram total
  double sum = 0, min = 0, max = 0, mean = 0, variance = 0;  ///< accumulator
  double lo = 0, hi = 0;                ///< histogram range
  std::vector<std::uint64_t> buckets;   ///< histogram buckets

  bool operator==(const MetricValue&) const = default;
};

/// Bit-exact dump of one instrument's internal state, as opposed to the
/// derived values in MetricValue (a restored variance = m2/n could differ in
/// the last ulp from the live accumulator's m2_). Used by the checkpoint
/// layer (DESIGN.md §8) to make a restored machine's registry
/// indistinguishable — including future merges — from an uninterrupted run.
struct RawInstrument {
  InstrumentKind kind = InstrumentKind::kCounter;
  std::uint64_t count = 0;  ///< counter value / histogram total
  Accumulator::Raw acc;                 ///< accumulator Welford terms
  double lo = 0, hi = 0;                ///< histogram range
  std::vector<std::uint64_t> buckets;   ///< histogram buckets
};

/// One leaf of a window: `after` less the monotone parts of `before`
/// (counter value, accumulator count and sum, histogram count and buckets).
/// The non-subtractable accumulator moments (min/max/mean/variance) keep
/// `after`'s values, and so does a leaf whose kind changed.
MetricValue diff(const MetricValue& before, const MetricValue& after);

/// Raw registry image: path -> raw instrument state, ordered by path.
using RawMetrics = std::map<std::string, RawInstrument>;

/// A frozen registry: path -> value, ordered by path.
struct MetricsSnapshot {
  std::map<std::string, MetricValue> entries;

  bool operator==(const MetricsSnapshot&) const = default;
  bool empty() const { return entries.empty(); }

  /// Nested JSON: path segments become nested objects, each leaf a typed
  /// object ({"type":"counter","value":N}, ...). `indent` is the base
  /// indentation of the emitted block (the opening '{' is not indented so
  /// the result can be embedded after a key).
  std::string to_json(int indent = 0) const;
};

/// Named instruments addressed by slash-separated paths. Registration is
/// idempotent: asking for an existing path returns the same instrument;
/// asking with a different kind (or conflicting histogram shape) faults, as
/// does registering a path that nests under (or over) an existing leaf.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;

  Counter& counter(const std::string& path);
  Accumulator& accumulator(const std::string& path);
  Histogram& histogram(const std::string& path, double lo, double hi,
                       std::size_t buckets);

  bool contains(const std::string& path) const;
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  MetricsSnapshot snapshot() const;
  /// Makes `snap` equal snapshot(). When `snap` already holds exactly this
  /// registry's paths — a stream's previous window — its leaves are
  /// overwritten in place and nothing is allocated; otherwise it is rebuilt.
  void snapshot_into(MetricsSnapshot& snap) const;

  /// Bit-exact image of every instrument's internal state.
  RawMetrics save_raw() const;

  /// Restores a save_raw() image **in place**: instruments present in `raw`
  /// keep their heap addresses, so Counter*/Histogram* pointers cached by
  /// the machine layer (lane counters, bound memory/network instruments) stay
  /// valid across a restore. Instruments absent from `raw` are erased — they
  /// did not exist at save time, and a backward restore must not keep them.
  void restore_raw(const RawMetrics& raw);

  /// Folds `other`'s instruments into this registry: counters add,
  /// accumulators merge (Welford combine — order-sensitive in floating
  /// point, so callers fix the merge order), histograms add bucket-wise.
  /// Instruments missing here are created; kind mismatches fault.
  void merge(const MetricsRegistry& other);

 private:
  struct Entry {
    InstrumentKind kind;
    // Stable addresses across map growth: each instrument is heap-allocated
    // once and never moves, so cached Counter*/Histogram* stay valid.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Accumulator> accumulator;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find(const std::string& path, InstrumentKind kind);
  void check_path(const std::string& path) const;

  std::map<std::string, Entry> entries_;
};

/// Appends one instrument leaf as a JSON object ({"type": "counter",
/// "value": N}, ...) to `out`. With `pretty_pad` empty the whole object
/// stays on one line (the NDJSON stream export); otherwise histogram buckets
/// break onto their own line indented under `pretty_pad` (the nested
/// --metrics-json tree). Both paths emit identical values, which is what
/// lets the stream validator compare the two exports leaf-for-leaf.
void to_json_leaf(std::string& out, const MetricValue& v,
                  std::string_view pretty_pad = {});

/// Appends an integer in decimal (std::to_chars).
template <std::integral Int>
void append_number(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Appends a double with the digits of printf's "%.17g" (std::to_chars,
/// general, precision 17). JSON has no inf/nan literals, so a non-finite
/// value appends null.
void append_number(std::string& out, double v);

/// Appends `, "key": v` — one member after the first of a JSON object.
template <typename Number>
void append_field(std::string& out, std::string_view key, Number v) {
  out += ", \"";
  out += key;
  out += "\": ";
  append_number(out, v);
}

/// Escapes a string for embedding inside a JSON string literal (quotes not
/// included): the appending form and the returning one.
void json_escape(std::string& out, std::string_view s);
std::string json_escape(std::string_view s);

}  // namespace tcfpn::metrics
