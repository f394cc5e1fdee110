#include "common/metrics.hpp"

#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace tcfpn::metrics {

const char* to_string(InstrumentKind k) {
  switch (k) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kAccumulator: return "accumulator";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "?";
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

void MetricsRegistry::check_path(const std::string& path) const {
  TCFPN_CHECK(!path.empty(), "metric path must not be empty");
  TCFPN_CHECK(path.front() != '/' && path.back() != '/',
              "metric path '", path, "' must not start or end with '/'");
  TCFPN_CHECK(path.find("//") == std::string::npos,
              "metric path '", path, "' has an empty segment");
  // The JSON export nests segments into objects, so a leaf can never also be
  // an interior node: "mem" conflicts with "mem/reads" and vice versa.
  for (std::size_t sep = path.find('/'); sep != std::string::npos;
       sep = path.find('/', sep + 1)) {
    TCFPN_CHECK(entries_.find(path.substr(0, sep)) == entries_.end(),
                "metric '", path, "' nests under existing leaf '",
                path.substr(0, sep), "'");
  }
  const std::string prefix = path + "/";
  const auto below = entries_.lower_bound(prefix);
  TCFPN_CHECK(below == entries_.end() || below->first.rfind(prefix, 0) != 0,
              "metric '", path, "' is an interior node of existing leaf '",
              below == entries_.end() ? "" : below->first, "'");
}

MetricsRegistry::Entry* MetricsRegistry::find(const std::string& path,
                                              InstrumentKind kind) {
  auto it = entries_.find(path);
  if (it == entries_.end()) return nullptr;
  TCFPN_CHECK(it->second.kind == kind, "metric '", path, "' is a ",
              to_string(it->second.kind), ", requested as ", to_string(kind));
  return &it->second;
}

Counter& MetricsRegistry::counter(const std::string& path) {
  if (Entry* e = find(path, InstrumentKind::kCounter)) return *e->counter;
  check_path(path);
  Entry& e = entries_[path];
  e.kind = InstrumentKind::kCounter;
  e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Accumulator& MetricsRegistry::accumulator(const std::string& path) {
  if (Entry* e = find(path, InstrumentKind::kAccumulator)) {
    return *e->accumulator;
  }
  check_path(path);
  Entry& e = entries_[path];
  e.kind = InstrumentKind::kAccumulator;
  e.accumulator = std::make_unique<Accumulator>();
  return *e.accumulator;
}

Histogram& MetricsRegistry::histogram(const std::string& path, double lo,
                                      double hi, std::size_t buckets) {
  if (Entry* e = find(path, InstrumentKind::kHistogram)) {
    TCFPN_CHECK(e->histogram->lo() == lo && e->histogram->hi() == hi &&
                    e->histogram->buckets() == buckets,
                "histogram '", path, "' re-registered with a different shape");
    return *e->histogram;
  }
  check_path(path);
  Entry& e = entries_[path];
  e.kind = InstrumentKind::kHistogram;
  e.histogram = std::make_unique<Histogram>(lo, hi, buckets);
  return *e.histogram;
}

bool MetricsRegistry::contains(const std::string& path) const {
  return entries_.find(path) != entries_.end();
}

namespace {

/// Writes `e`'s frozen value into `v`: a fresh leaf that keeps `v`'s
/// bucket storage.
template <typename Entry>
void freeze(const Entry& e, MetricValue& v) {
  std::vector<std::uint64_t> buckets = std::move(v.buckets);
  buckets.clear();
  v = MetricValue{};
  v.kind = e.kind;
  switch (e.kind) {
    case InstrumentKind::kCounter:
      v.count = e.counter->value();
      break;
    case InstrumentKind::kAccumulator:
      v.count = e.accumulator->count();
      if (v.count > 0) {
        v.sum = e.accumulator->sum();
        v.min = e.accumulator->min();
        v.max = e.accumulator->max();
        v.mean = e.accumulator->mean();
        v.variance = e.accumulator->variance();
      }
      break;
    case InstrumentKind::kHistogram:
      v.count = e.histogram->count();
      v.lo = e.histogram->lo();
      v.hi = e.histogram->hi();
      buckets.reserve(e.histogram->buckets());
      for (std::size_t i = 0; i < e.histogram->buckets(); ++i) {
        buckets.push_back(e.histogram->bucket_count(i));
      }
      break;
  }
  v.buckets = std::move(buckets);
}

}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snapshot_into(snap);
  return snap;
}

void MetricsRegistry::snapshot_into(MetricsSnapshot& snap) const {
  if (snap.entries.size() == entries_.size()) {
    auto out = snap.entries.begin();
    auto in = entries_.begin();
    for (; in != entries_.end() && in->first == out->first; ++in, ++out) {
      freeze(in->second, out->second);
    }
    if (in == entries_.end()) return;
  }
  snap.entries.clear();
  for (const auto& [path, e] : entries_) {
    freeze(e, snap.entries.emplace_hint(snap.entries.end(), path, MetricValue{})
                  ->second);
  }
}

RawMetrics MetricsRegistry::save_raw() const {
  RawMetrics raw;
  for (const auto& [path, e] : entries_) {
    RawInstrument r;
    r.kind = e.kind;
    switch (e.kind) {
      case InstrumentKind::kCounter:
        r.count = e.counter->value();
        break;
      case InstrumentKind::kAccumulator:
        r.acc = e.accumulator->raw();
        break;
      case InstrumentKind::kHistogram:
        r.count = e.histogram->count();
        r.lo = e.histogram->lo();
        r.hi = e.histogram->hi();
        r.buckets.reserve(e.histogram->buckets());
        for (std::size_t i = 0; i < e.histogram->buckets(); ++i) {
          r.buckets.push_back(e.histogram->bucket_count(i));
        }
        break;
    }
    raw.emplace(path, std::move(r));
  }
  return raw;
}

void MetricsRegistry::restore_raw(const RawMetrics& raw) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (raw.find(it->first) == raw.end()) it = entries_.erase(it);
    else ++it;
  }
  for (const auto& [path, r] : raw) {
    switch (r.kind) {
      case InstrumentKind::kCounter:
        counter(path).restore(r.count);
        break;
      case InstrumentKind::kAccumulator:
        accumulator(path).restore(r.acc);
        break;
      case InstrumentKind::kHistogram:
        histogram(path, r.lo, r.hi, r.buckets.size())
            .restore(r.buckets, r.count);
        break;
    }
  }
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [path, e] : other.entries_) {
    switch (e.kind) {
      case InstrumentKind::kCounter:
        counter(path).add(e.counter->value());
        break;
      case InstrumentKind::kAccumulator:
        accumulator(path).merge(*e.accumulator);
        break;
      case InstrumentKind::kHistogram:
        histogram(path, e.histogram->lo(), e.histogram->hi(),
                  e.histogram->buckets())
            .merge(*e.histogram);
        break;
    }
  }
}

// --------------------------------------------------------------------------
// Snapshot
// --------------------------------------------------------------------------

MetricValue diff(const MetricValue& before, const MetricValue& after) {
  MetricValue v = after;
  if (before.kind != after.kind) return v;
  const auto minus = [](std::uint64_t a, std::uint64_t b) {
    return a >= b ? a - b : 0;
  };
  switch (after.kind) {
    case InstrumentKind::kCounter:
      v.count = minus(after.count, before.count);
      break;
    case InstrumentKind::kAccumulator:
      v.count = minus(after.count, before.count);
      v.sum = after.sum - before.sum;
      break;  // min/max/mean/variance stay the window-less values
    case InstrumentKind::kHistogram:
      v.count = minus(after.count, before.count);
      for (std::size_t i = 0;
           i < v.buckets.size() && i < before.buckets.size(); ++i) {
        v.buckets[i] = minus(after.buckets[i], before.buckets[i]);
      }
      break;
  }
  return v;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // The instruments never produce inf/nan; keep the exporter total anyway.
    out += "null";
    return;
  }
  // "%.17g" writes an integral value below 1e17 as its plain digits, -0
  // aside. Most leaves (counts, ranges, sums) are integral, and the integer
  // path skips the general form's digit search.
  if (std::fabs(v) < 1e15 && v == std::trunc(v) &&
      !(v == 0 && std::signbit(v))) {
    append_number(out, static_cast<std::int64_t>(v));
    return;
  }
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
}

namespace {

using Iter = std::map<std::string, MetricValue>::const_iterator;

/// Emits the entries of [it, end) that live under `prefix` (which is either
/// empty or ends in '/') as one JSON object; advances `it` past them.
void emit_tree(std::string& out, Iter& it, const Iter end,
               const std::string& prefix, int depth, int indent) {
  const std::string pad(static_cast<std::size_t>(indent + 2 * depth), ' ');
  const std::string inner(static_cast<std::size_t>(indent + 2 * (depth + 1)),
                          ' ');
  out += '{';
  bool first = true;
  while (it != end && it->first.rfind(prefix, 0) == 0) {
    const std::string rest = it->first.substr(prefix.size());
    const std::size_t slash = rest.find('/');
    if (!first) out += ',';
    out += '\n';
    first = false;
    out += inner;
    out += '"';
    if (slash == std::string::npos) {
      json_escape(out, rest);
      out += "\": ";
      to_json_leaf(out, it->second, inner);
      ++it;
    } else {
      const std::string head = rest.substr(0, slash);
      json_escape(out, head);
      out += "\": ";
      emit_tree(out, it, end, prefix + head + "/", depth + 1, indent);
    }
  }
  if (!first) {
    out += '\n';
    out += pad;
  }
  out += '}';
}

}  // namespace

std::string MetricsSnapshot::to_json(int indent) const {
  std::string out;
  Iter it = entries.begin();
  emit_tree(out, it, entries.end(), "", 0, indent);
  return out;
}

void to_json_leaf(std::string& out, const MetricValue& v,
                  std::string_view pretty_pad) {
  out += "{\"type\": \"";
  out += to_string(v.kind);
  out += '"';
  switch (v.kind) {
    case InstrumentKind::kCounter:
      append_field(out, "value", v.count);
      break;
    case InstrumentKind::kAccumulator:
      append_field(out, "count", v.count);
      if (v.count > 0) {
        append_field(out, "sum", v.sum);
        append_field(out, "min", v.min);
        append_field(out, "max", v.max);
        append_field(out, "mean", v.mean);
        append_field(out, "variance", v.variance);
      }
      break;
    case InstrumentKind::kHistogram: {
      append_field(out, "count", v.count);
      append_field(out, "lo", v.lo);
      append_field(out, "hi", v.hi);
      if (pretty_pad.empty()) {
        out += ", \"buckets\": [";
      } else {
        out += ",\n";
        out += pretty_pad;
        out += "  \"buckets\": [";
      }
      for (std::size_t i = 0; i < v.buckets.size(); ++i) {
        if (i) out += ", ";
        append_number(out, v.buckets[i]);
      }
      out += ']';
      break;
    }
  }
  out += '}';
}

// --------------------------------------------------------------------------
// JSON helpers
// --------------------------------------------------------------------------

void json_escape(std::string& out, std::string_view s) {
  // Plain characters are copied in runs; only an escape breaks a run.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char* esc = nullptr;
    switch (s[i]) {
      case '"': esc = "\\\""; break;
      case '\\': esc = "\\\\"; break;
      case '\n': esc = "\\n"; break;
      case '\r': esc = "\\r"; break;
      case '\t': esc = "\\t"; break;
      default:
        if (static_cast<unsigned char>(s[i]) >= 0x20) continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    if (esc != nullptr) {
      out += esc;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", s[i]);
      out += buf;
    }
  }
  out.append(s.data() + run, s.size() - run);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  json_escape(out, s);
  return out;
}

}  // namespace tcfpn::metrics
