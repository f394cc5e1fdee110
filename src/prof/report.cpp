#include "prof/report.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>

#include "common/metrics.hpp"

namespace tcfpn::prof {

namespace {

/// Folded-stack separators must not appear inside a segment.
std::string sanitize(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
  }
  if (out.empty()) out = "program";
  return out;
}

double pct(Cycle part, Cycle whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole);
}

std::string fixed(double v, int places = 1) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(places) << v;
  return os.str();
}

/// Per-term totals split into flow-attributed and machine-level cells.
struct TermTotals {
  std::array<Cycle, kNumTerms> total{};
  Cycle attributed = 0;
};

TermTotals term_totals(const Profile& p) {
  TermTotals t;
  for (const auto& [k, c] : p.cells) {
    t.total[static_cast<std::size_t>(k.term)] += c;
    t.attributed += c;
  }
  return t;
}

/// Step-limit aggregate over the recorded step tape.
struct LimitAgg {
  std::array<std::uint64_t, kNumStepLimits> steps{};
  std::array<Cycle, kNumStepLimits> cycles{};
  Cycle stepped = 0;  ///< total cost of the recorded steps
};

LimitAgg limit_agg(const Profile& p) {
  LimitAgg a;
  for (const StepRecord& r : p.steps) {
    const auto l = static_cast<std::size_t>(classify(r));
    const Cycle c = step_cost(r);
    ++a.steps[l];
    a.cycles[l] += c;
    a.stepped += c;
  }
  return a;
}

void append_limits(std::ostringstream& os, const Profile& p) {
  const LimitAgg a = limit_agg(p);
  os << "critical path (" << p.steps.size() << " recorded steps"
     << (p.steps_truncated ? ", TRUNCATED" : "") << "):\n";
  for (std::size_t i = 0; i < kNumStepLimits; ++i) {
    const auto l = static_cast<StepLimit>(i);
    os << "  " << std::left << std::setw(8) << to_string(l) << std::right
       << std::setw(8) << a.steps[i] << " steps  " << std::setw(12)
       << a.cycles[i] << " cycles  " << std::setw(5)
       << fixed(pct(a.cycles[i], a.stepped)) << "%\n";
  }
}

/// Names a cell owner for the human reports.
std::string owner(const Key& k) {
  if (k.flow < 0) return "machine";
  std::ostringstream os;
  os << "tcf" << k.flow << "@g" << k.group;
  return os.str();
}

/// Top-2 terms of an aggregate row, e.g. "compute 60.1%, local 39.9%".
std::string dominant_terms(const std::array<Cycle, kNumTerms>& t,
                           Cycle total) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < kNumTerms; ++i) {
    if (t[i] > 0) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return t[a] > t[b]; });
  std::string out;
  for (std::size_t i = 0; i < order.size() && i < 2; ++i) {
    if (i) out += ", ";
    out += to_string(static_cast<Term>(order[i]));
    out += " " + fixed(pct(t[order[i]], total)) + "%";
  }
  return out;
}

struct Row {
  std::string label;
  Cycle total = 0;
  std::array<Cycle, kNumTerms> terms{};
};

void append_rows(std::ostringstream& os, std::vector<Row> rows,
                 std::size_t top, Cycle denom) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.total > b.total; });
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    os << "  " << std::left << std::setw(14) << rows[i].label << std::right
       << std::setw(12) << rows[i].total << "  " << std::setw(5)
       << fixed(pct(rows[i].total, denom)) << "%  "
       << dominant_terms(rows[i].terms, rows[i].total) << "\n";
  }
}

void json_key(std::ostringstream& os, const Key& k) {
  auto idx = [&](std::int64_t v) -> std::string {
    return v < 0 ? "null" : std::to_string(v);
  };
  os << "{\"group\": " << idx(k.group) << ", \"flow\": " << idx(k.flow)
     << ", \"pc\": " << idx(k.pc) << ", \"term\": \"" << to_string(k.term)
     << "\"";
}

}  // namespace

bool parse_what_if(std::string_view spec, WhatIf* out) {
  if (spec.rfind("term=", 0) == 0) spec.remove_prefix(5);
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  Term t;
  if (!term_from_string(spec.substr(0, colon), &t)) return false;
  if (t != Term::kCompute && t != Term::kNet && t != Term::kFault &&
      t != Term::kFill) {
    return false;  // only the step-record components are scalable
  }
  std::string num(spec.substr(colon + 1));
  if (!num.empty() && (num.back() == 'x' || num.back() == 'X')) {
    num.pop_back();
  }
  if (num.empty()) return false;
  char* end = nullptr;
  const double f = std::strtod(num.c_str(), &end);
  if (end != num.c_str() + num.size() || !(f >= 0.0) || !std::isfinite(f)) {
    return false;
  }
  out->term = t;
  out->factor = f;
  return true;
}

std::optional<Cycle> what_if_cycles(const Profile& p, Cycle total_cycles,
                                    const std::vector<WhatIf>& mods) {
  double f_compute = 1.0, f_net = 1.0, f_fault = 1.0, f_fill = 1.0;
  for (const WhatIf& m : mods) {
    switch (m.term) {
      case Term::kCompute: f_compute = m.factor; break;
      case Term::kNet: f_net = m.factor; break;
      case Term::kFault: f_fault = m.factor; break;
      case Term::kFill: f_fill = m.factor; break;
      default: break;
    }
  }
  Cycle stepped = 0;
  double recost = 0.0;
  for (const StepRecord& r : p.steps) {
    stepped += step_cost(r);
    const double body =
        std::max(static_cast<double>(r.slot) * f_compute,
                 static_cast<double>(r.net) * f_net +
                     static_cast<double>(r.fault) * f_fault);
    recost += static_cast<double>(r.fill) * f_fill + body;
  }
  // Cycles outside the recorded tape (switch/sched charges, any truncated
  // tail) are not re-costable; they carry over unscaled — the Amdahl
  // serial fraction of the estimate.
  const Cycle other = total_cycles - std::min(total_cycles, stepped);
  // 2^64 is exact in a double; the negated test also rejects a NaN.
  constexpr double kCycleRange = 18446744073709551616.0;
  if (!(recost < kCycleRange)) return std::nullopt;
  const Cycle scaled = static_cast<Cycle>(std::round(recost));
  if (scaled > std::numeric_limits<Cycle>::max() - other) return std::nullopt;
  return other + scaled;
}

bool hotspot_by_from_string(std::string_view name, HotspotBy* out) {
  if (name == "pc") *out = HotspotBy::kPc;
  else if (name == "tcf") *out = HotspotBy::kTcf;
  else if (name == "group") *out = HotspotBy::kGroup;
  else if (name == "term") *out = HotspotBy::kTerm;
  else return false;
  return true;
}

std::string report_summary(const Profile& p, const RunInfo& run) {
  const TermTotals t = term_totals(p);
  std::ostringstream os;
  os << "tcfprof summary: " << run.program << "\n";
  for (const auto& [k, v] : run.meta) os << "  " << k << "=" << v << "\n";
  os << "  completed=" << (run.completed ? "true" : "false")
     << " steps=" << run.steps << " cycles=" << run.cycles
     << " attributed=" << t.attributed << " ("
     << fixed(pct(t.attributed, run.cycles)) << "%)\n";
  os << "term breakdown:\n";
  for (std::size_t i = 0; i < kNumTerms; ++i) {
    const auto term = static_cast<Term>(i);
    if (t.total[i] == 0) continue;
    os << "  " << std::left << std::setw(8) << to_string(term) << std::right
       << std::setw(12) << t.total[i] << "  " << std::setw(5)
       << fixed(pct(t.total[i], t.attributed)) << "%\n";
  }
  append_limits(os, p);
  return os.str();
}

std::string report_hotspots(const Profile& p, const RunInfo& run,
                            HotspotBy by, std::size_t top) {
  const TermTotals t = term_totals(p);
  std::ostringstream os;
  std::vector<Row> rows;
  Cycle uncovered = 0;

  auto aggregate = [&](auto key_of, auto label_of, auto has_key) {
    std::map<std::int64_t, Row> agg;
    for (const auto& [k, c] : p.cells) {
      if (!has_key(k)) {
        uncovered += c;
        continue;
      }
      Row& r = agg[key_of(k)];
      r.total += c;
      r.terms[static_cast<std::size_t>(k.term)] += c;
    }
    for (auto& [id, r] : agg) {
      r.label = label_of(id);
      rows.push_back(std::move(r));
    }
  };

  switch (by) {
    case HotspotBy::kPc: {
      // Aggregate per pc, pick the top-N pcs, then coalesce adjacent hot
      // pcs into ranges so a hot loop reads as one row.
      std::map<std::int64_t, Row> agg;
      for (const auto& [k, c] : p.cells) {
        if (k.pc < 0) {
          uncovered += c;
          continue;
        }
        Row& r = agg[k.pc];
        r.total += c;
        r.terms[static_cast<std::size_t>(k.term)] += c;
      }
      std::vector<std::pair<std::int64_t, Row>> flat(agg.begin(), agg.end());
      std::stable_sort(flat.begin(), flat.end(),
                       [](const auto& a, const auto& b) {
                         return a.second.total > b.second.total;
                       });
      if (flat.size() > top) flat.resize(top);
      std::sort(flat.begin(), flat.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t i = 0; i < flat.size();) {
        std::int64_t lo = flat[i].first, hi = lo;
        Row merged = flat[i].second;
        std::size_t j = i + 1;
        while (j < flat.size() && flat[j].first == hi + 1) {
          hi = flat[j].first;
          merged.total += flat[j].second.total;
          for (std::size_t q = 0; q < kNumTerms; ++q) {
            merged.terms[q] += flat[j].second.terms[q];
          }
          ++j;
        }
        merged.label = lo == hi
                           ? "pc " + std::to_string(lo)
                           : "pc " + std::to_string(lo) + "-" +
                                 std::to_string(hi);
        rows.push_back(std::move(merged));
        i = j;
      }
      break;
    }
    case HotspotBy::kTcf:
      aggregate([](const Key& k) { return k.flow; },
                [](std::int64_t id) { return "tcf " + std::to_string(id); },
                [](const Key& k) { return k.flow >= 0; });
      break;
    case HotspotBy::kGroup:
      aggregate([](const Key& k) { return k.group; },
                [](std::int64_t id) { return "group " + std::to_string(id); },
                [](const Key& k) { return k.group >= 0; });
      break;
    case HotspotBy::kTerm:
      aggregate(
          [](const Key& k) { return static_cast<std::int64_t>(k.term); },
          [](std::int64_t id) {
            return std::string(to_string(static_cast<Term>(id)));
          },
          [](const Key&) { return true; });
      break;
  }

  os << "tcfprof hotspots: " << run.program << " (top " << top << ")\n";
  append_rows(os, std::move(rows), top, t.attributed);
  if (uncovered > 0) {
    os << "  (" << uncovered << " cycles / "
       << fixed(pct(uncovered, t.attributed))
       << "% in machine-level cells without this key)\n";
  }
  return os.str();
}

std::string report_steps(const Profile& p, const RunInfo& run,
                         const std::vector<WhatIf>& what_ifs) {
  std::ostringstream os;
  os << "tcfprof steps: " << run.program << "\n";
  append_limits(os, p);
  // Which groups set the slot term most often.
  std::map<std::int64_t, std::uint64_t> limiting;
  for (const StepRecord& r : p.steps) {
    if (r.limit_group >= 0) ++limiting[r.limit_group];
  }
  if (!limiting.empty()) {
    std::vector<std::pair<std::int64_t, std::uint64_t>> flat(limiting.begin(),
                                                             limiting.end());
    std::stable_sort(flat.begin(), flat.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    os << "limiting groups:\n";
    for (std::size_t i = 0; i < flat.size() && i < 4; ++i) {
      os << "  group " << flat[i].first << ": " << flat[i].second
         << " steps (" << fixed(pct(flat[i].second, p.steps.size()))
         << "%)\n";
    }
  }
  constexpr const char* kOutOfRange =
      "out of the 64-bit cycle range (2^64 cycles or more)";
  for (const WhatIf& w : what_ifs) {
    os << "what-if " << to_string(w.term) << ":" << fixed(w.factor, 2)
       << "x -> ";
    const std::optional<Cycle> re = what_if_cycles(p, run.cycles, {w});
    if (!re) {
      os << kOutOfRange << "\n";
      continue;
    }
    os << *re << " cycles ("
       << fixed(run.cycles == 0
                    ? 0.0
                    : static_cast<double>(*re) /
                          static_cast<double>(run.cycles),
                2)
       << "x of " << run.cycles << ")\n";
  }
  if (what_ifs.size() > 1) {
    const std::optional<Cycle> re = what_if_cycles(p, run.cycles, what_ifs);
    os << "what-if combined -> ";
    if (re) {
      os << *re << " cycles\n";
    } else {
      os << kOutOfRange << "\n";
    }
  }
  return os.str();
}

std::vector<std::string> folded_lines(const Profile& p, const RunInfo& run) {
  const std::string prog = sanitize(run.program);
  std::vector<std::string> lines;
  lines.reserve(p.cells.size());
  for (const auto& [k, c] : p.cells) {
    std::string line = prog;
    line += ";" + owner(k);
    if (k.pc >= 0) line += ";pc" + std::to_string(k.pc);
    line += ";";
    line += to_string(k.term);
    line += " " + std::to_string(c);
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string report_folded(const Profile& p, const RunInfo& run) {
  std::string out;
  for (const std::string& l : folded_lines(p, run)) {
    out += l;
    out += "\n";
  }
  return out;
}

std::string report_html(const Profile& p, const RunInfo& run) {
  std::ostringstream os;
  os << "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n<title>tcfprof "
     << metrics::json_escape(run.program) << "</title>\n<style>\n"
     << "body{font:13px/1.4 monospace;margin:16px;background:#1a1b26;"
        "color:#c0caf5}\n"
     << "#chart{position:relative;width:100%;margin-top:12px}\n"
     << ".frame{position:absolute;height:18px;overflow:hidden;"
        "white-space:nowrap;border:1px solid #1a1b26;border-radius:2px;"
        "cursor:pointer;font-size:11px;padding-left:3px;color:#16161e}\n"
     << ".frame:hover{filter:brightness(1.2)}\n"
     << "#crumb{margin-top:8px;color:#7aa2f7;cursor:pointer}\n"
     << "</style></head><body>\n<h3>tcfprof flame graph: "
     << metrics::json_escape(run.program) << "</h3>\n<div>cycles="
     << run.cycles << " steps=" << run.steps << "</div>\n"
     << "<div id=\"crumb\">all</div>\n<div id=\"chart\"></div>\n<script>\n";
  os << "const folded = [";
  bool first = true;
  for (const std::string& l : folded_lines(p, run)) {
    const std::size_t sp = l.rfind(' ');
    os << (first ? "" : ",") << "\n [\""
       << metrics::json_escape(l.substr(0, sp)) << "\", "
       << l.substr(sp + 1) << "]";
    first = false;
  }
  os << "\n];\n";
  // Self-contained icicle renderer: build the prefix tree, lay frames out
  // left-to-right in cell order, zoom on click.
  os << R"JS(
function build() {
  const root = {name: "all", value: 0, children: new Map()};
  for (const [path, v] of folded) {
    let n = root;
    root.value += v;
    for (const seg of path.split(";")) {
      if (!n.children.has(seg)) {
        n.children.set(seg, {name: seg, value: 0, children: new Map()});
      }
      n = n.children.get(seg);
      n.value += v;
    }
  }
  return root;
}
const palette = {compute: "#9ece6a", operand: "#e0af68", local: "#ff9e64",
  branch: "#bb9af7", fill: "#565f89", net: "#f7768e", fault: "#db4b4b",
  idle: "#414868", switch: "#7dcfff", sched: "#2ac3de"};
function color(name) {
  if (palette[name]) return palette[name];
  let h = 0;
  for (const c of name) h = (h * 31 + c.charCodeAt(0)) >>> 0;
  return "hsl(" + (h % 360) + ",55%,65%)";
}
const chart = document.getElementById("chart");
const crumb = document.getElementById("crumb");
const ROW = 20;
let zoomRoot = null;
function render(node, path) {
  chart.innerHTML = "";
  crumb.textContent = path.join(" > ") || "all";
  let maxDepth = 0;
  function place(n, x, width, depth) {
    maxDepth = Math.max(maxDepth, depth);
    const d = document.createElement("div");
    d.className = "frame";
    d.style.left = (100 * x) + "%";
    d.style.width = "calc(" + (100 * width) + "% - 1px)";
    d.style.top = (depth * ROW) + "px";
    d.style.background = color(n.name);
    d.textContent = n.name;
    d.title = n.name + ": " + n.value + " cycles (" +
        (100 * n.value / node.value).toFixed(1) + "% of view)";
    d.onclick = () => render(n, path.concat(n === node ? [] : [n.name]));
    chart.appendChild(d);
    let cx = x;
    for (const c of n.children.values()) {
      const w = width * c.value / n.value;
      place(c, cx, w, depth + 1);
      cx += w;
    }
  }
  place(node, 0, 1, 0);
  chart.style.height = ((maxDepth + 1) * ROW + 4) + "px";
}
const root = build();
crumb.onclick = () => render(root, []);
render(root, []);
)JS";
  os << "</script></body></html>\n";
  return os.str();
}

std::string report_json(const Profile& p, const RunInfo& run) {
  const TermTotals t = term_totals(p);
  const LimitAgg a = limit_agg(p);
  std::ostringstream os;
  os << "{\n  \"schema\": \"tcfpn-profile-v1\",\n  \"run\": {\n";
  os << "    \"program\": \"" << metrics::json_escape(run.program) << "\",\n";
  for (const auto& [k, v] : run.meta) {
    os << "    \"" << metrics::json_escape(k) << "\": \""
       << metrics::json_escape(v) << "\",\n";
  }
  os << "    \"completed\": " << (run.completed ? "true" : "false") << ",\n"
     << "    \"steps\": " << run.steps << ",\n"
     << "    \"cycles\": " << run.cycles << ",\n"
     << "    \"attributed_cycles\": " << t.attributed << ",\n"
     << "    \"pipeline_fill\": " << run.pipeline_fill << "\n  },\n";
  os << "  \"terms\": [";
  for (std::size_t i = 0; i < kNumTerms; ++i) {
    os << (i ? ", " : "") << "\"" << to_string(static_cast<Term>(i)) << "\"";
  }
  os << "],\n  \"totals\": {";
  for (std::size_t i = 0; i < kNumTerms; ++i) {
    os << (i ? ", " : "") << "\"" << to_string(static_cast<Term>(i))
       << "\": " << t.total[i];
  }
  os << "},\n  \"cells\": [";
  bool first = true;
  for (const auto& [k, c] : p.cells) {
    os << (first ? "" : ",") << "\n    ";
    json_key(os, k);
    os << ", \"cycles\": " << c << "}";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << ",\n";
  os << "  \"steps\": {\n    \"recorded\": " << p.steps.size()
     << ",\n    \"truncated\": " << (p.steps_truncated ? "true" : "false")
     << ",\n    \"limited_by\": {";
  for (std::size_t i = 0; i < kNumStepLimits; ++i) {
    os << (i ? ", " : "") << "\"" << to_string(static_cast<StepLimit>(i))
       << "\": {\"steps\": " << a.steps[i] << ", \"cycles\": " << a.cycles[i]
       << "}";
  }
  os << "}\n  },\n  \"folded\": [";
  first = true;
  for (const std::string& l : folded_lines(p, run)) {
    os << (first ? "" : ",") << "\n    \"" << metrics::json_escape(l) << "\"";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

}  // namespace tcfpn::prof
