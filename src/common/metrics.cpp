#include "common/metrics.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>

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

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [path, e] : entries_) {
    MetricValue v;
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
        v.buckets.reserve(e.histogram->buckets());
        for (std::size_t i = 0; i < e.histogram->buckets(); ++i) {
          v.buckets.push_back(e.histogram->bucket_count(i));
        }
        break;
    }
    snap.entries.emplace(path, std::move(v));
  }
  return snap;
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

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& before,
                                      const MetricsSnapshot& after) {
  MetricsSnapshot out;
  for (const auto& [path, a] : after.entries) {
    MetricValue v = a;
    const auto it = before.entries.find(path);
    if (it != before.entries.end() && it->second.kind == a.kind) {
      const MetricValue& b = it->second;
      switch (a.kind) {
        case InstrumentKind::kCounter:
          v.count = a.count >= b.count ? a.count - b.count : 0;
          break;
        case InstrumentKind::kGauge:
          break;  // levels don't subtract
        case InstrumentKind::kAccumulator:
          v.count = a.count >= b.count ? a.count - b.count : 0;
          v.sum = a.sum - b.sum;
          break;  // min/max/mean/variance stay the window-less values
        case InstrumentKind::kHistogram:
          v.count = a.count >= b.count ? a.count - b.count : 0;
          for (std::size_t i = 0;
               i < v.buckets.size() && i < b.buckets.size(); ++i) {
            v.buckets[i] = a.buckets[i] >= b.buckets[i]
                               ? a.buckets[i] - b.buckets[i]
                               : 0;
          }
          break;
      }
    }
    out.entries.emplace(path, std::move(v));
  }
  return out;
}

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string s(buf);
  // JSON has no inf/nan literals; the instruments never produce them, but
  // keep the exporter total anyway.
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

void emit_value(std::ostringstream& os, const MetricValue& v,
                const std::string& pad) {
  os << to_json_leaf(v, pad);
}

using Iter = std::map<std::string, MetricValue>::const_iterator;

/// Emits the entries of [it, end) that live under `prefix` (which is either
/// empty or ends in '/') as one JSON object; advances `it` past them.
void emit_tree(std::ostringstream& os, Iter& it, const Iter end,
               const std::string& prefix, int depth, int indent) {
  const std::string pad(static_cast<std::size_t>(indent + 2 * depth), ' ');
  const std::string inner(static_cast<std::size_t>(indent + 2 * (depth + 1)),
                          ' ');
  os << "{";
  bool first = true;
  while (it != end && it->first.rfind(prefix, 0) == 0) {
    const std::string rest = it->first.substr(prefix.size());
    const std::size_t slash = rest.find('/');
    if (!first) os << ",";
    os << "\n";
    first = false;
    if (slash == std::string::npos) {
      os << inner << "\"" << json_escape(rest) << "\": ";
      emit_value(os, it->second, inner);
      ++it;
    } else {
      const std::string head = rest.substr(0, slash);
      os << inner << "\"" << json_escape(head) << "\": ";
      emit_tree(os, it, end, prefix + head + "/", depth + 1, indent);
    }
  }
  if (!first) os << "\n" << pad;
  os << "}";
}

}  // namespace

std::string MetricsSnapshot::to_json(int indent) const {
  std::ostringstream os;
  Iter it = entries.begin();
  emit_tree(os, it, entries.end(), "", 0, indent);
  return os.str();
}

std::string to_json_leaf(const MetricValue& v, const std::string& pretty_pad) {
  std::ostringstream os;
  os << "{\"type\": \"" << to_string(v.kind) << "\"";
  switch (v.kind) {
    case InstrumentKind::kCounter:
      os << ", \"value\": " << v.count;
      break;
    case InstrumentKind::kGauge:
      if (v.gauge_set) os << ", \"value\": " << fmt_double(v.value);
      else os << ", \"value\": null";
      break;
    case InstrumentKind::kAccumulator:
      os << ", \"count\": " << v.count;
      if (v.count > 0) {
        os << ", \"sum\": " << fmt_double(v.sum)
           << ", \"min\": " << fmt_double(v.min)
           << ", \"max\": " << fmt_double(v.max)
           << ", \"mean\": " << fmt_double(v.mean)
           << ", \"variance\": " << fmt_double(v.variance);
      }
      break;
    case InstrumentKind::kHistogram: {
      os << ", \"count\": " << v.count << ", \"lo\": " << fmt_double(v.lo)
         << ", \"hi\": " << fmt_double(v.hi) << ",";
      if (pretty_pad.empty()) {
        os << " \"buckets\": [";
      } else {
        os << "\n" << pretty_pad << "  \"buckets\": [";
      }
      for (std::size_t i = 0; i < v.buckets.size(); ++i) {
        if (i) os << ", ";
        os << v.buckets[i];
      }
      os << "]";
      break;
    }
  }
  os << "}";
  return os.str();
}

// --------------------------------------------------------------------------
// JSON helpers
// --------------------------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
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
