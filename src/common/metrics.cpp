#include "common/metrics.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace tcfpn::metrics {

const char* to_string(InstrumentKind k) {
  switch (k) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
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

Gauge& MetricsRegistry::gauge(const std::string& path) {
  if (Entry* e = find(path, InstrumentKind::kGauge)) return *e->gauge;
  check_path(path);
  Entry& e = entries_[path];
  e.kind = InstrumentKind::kGauge;
  e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
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
    case InstrumentKind::kGauge:
      v.value = e.gauge->value();
      v.gauge_set = e.gauge->is_set();
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
      case InstrumentKind::kGauge:
        r.gauge_value = e.gauge->value();
        r.gauge_set = e.gauge->is_set();
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
      case InstrumentKind::kGauge:
        gauge(path).restore(r.gauge_value, r.gauge_set);
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
      case InstrumentKind::kGauge:
        if (e.gauge->is_set()) gauge(path).set(e.gauge->value());
        else gauge(path);  // still materialise the instrument
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
    case InstrumentKind::kGauge:
      break;  // levels don't subtract
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
    case InstrumentKind::kGauge:
      if (v.gauge_set) append_field(out, "value", v.value);
      else out += ", \"value\": null";
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

namespace {

/// Recursive-descent syntax check; no value materialisation.
class JsonLint {
 public:
  explicit JsonLint(std::string_view t) : t_(t) {}

  bool run(std::string* error) {
    ok_ = value(0);
    ws();
    if (ok_ && pos_ != t_.size()) {
      ok_ = false;
      err_ = "trailing content";
    }
    if (!ok_ && error) {
      *error = err_ + " at offset " + std::to_string(pos_);
    }
    return ok_;
  }

 private:
  static constexpr int kMaxDepth = 256;

  void ws() {
    while (pos_ < t_.size() && std::isspace(static_cast<unsigned char>(
                                   t_[pos_]))) {
      ++pos_;
    }
  }
  bool eat(char c) {
    if (pos_ < t_.size() && t_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool fail(const char* why) {
    err_ = why;
    return false;
  }

  bool literal(std::string_view word) {
    if (t_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool string() {
    if (!eat('"')) return fail("expected string");
    while (pos_ < t_.size()) {
      const char c = t_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c == '\\') {
        if (pos_ >= t_.size()) return fail("dangling escape");
        const char e = t_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= t_.size() ||
                !std::isxdigit(static_cast<unsigned char>(t_[pos_]))) {
              return fail("bad \\u escape");
            }
            ++pos_;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return fail("bad escape character");
        }
      }
    }
    return fail("unterminated string");
  }

  bool number() {
    const std::size_t start = pos_;
    eat('-');
    if (!std::isdigit(static_cast<unsigned char>(
            pos_ < t_.size() ? t_[pos_] : '\0'))) {
      return fail("expected digit");
    }
    const std::size_t int_start = pos_;
    while (pos_ < t_.size() &&
           std::isdigit(static_cast<unsigned char>(t_[pos_]))) {
      ++pos_;
    }
    if (t_[int_start] == '0' && pos_ - int_start > 1) {
      return fail("leading zero in number");
    }
    if (eat('.')) {
      if (pos_ >= t_.size() ||
          !std::isdigit(static_cast<unsigned char>(t_[pos_]))) {
        return fail("expected fraction digits");
      }
      while (pos_ < t_.size() &&
             std::isdigit(static_cast<unsigned char>(t_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < t_.size() && (t_[pos_] == 'e' || t_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < t_.size() && (t_[pos_] == '+' || t_[pos_] == '-')) ++pos_;
      if (pos_ >= t_.size() ||
          !std::isdigit(static_cast<unsigned char>(t_[pos_]))) {
        return fail("expected exponent digits");
      }
      while (pos_ < t_.size() &&
             std::isdigit(static_cast<unsigned char>(t_[pos_]))) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  bool value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    ws();
    if (pos_ >= t_.size()) return fail("unexpected end of input");
    switch (t_[pos_]) {
      case '{': {
        ++pos_;
        ws();
        if (eat('}')) return true;
        while (true) {
          ws();
          if (!string()) return false;
          ws();
          if (!eat(':')) return fail("expected ':'");
          if (!value(depth + 1)) return false;
          ws();
          if (eat(',')) continue;
          if (eat('}')) return true;
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos_;
        ws();
        if (eat(']')) return true;
        while (true) {
          if (!value(depth + 1)) return false;
          ws();
          if (eat(',')) continue;
          if (eat(']')) return true;
          return fail("expected ',' or ']'");
        }
      }
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  std::string_view t_;
  std::size_t pos_ = 0;
  bool ok_ = false;
  std::string err_;
};

}  // namespace

bool json_valid(std::string_view text, std::string* error) {
  return JsonLint(text).run(error);
}

}  // namespace tcfpn::metrics
