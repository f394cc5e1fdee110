// tcfprof — cost-model attribution profiler front-end.
//
//   ./tcfprof examples/programs/scan.tcf --variant=balanced --bound=8
//   ./tcfprof prog.tcf --report=hotspots --by=pc --top=20
//   ./tcfprof prog.tcf --report=steps --what-if=net:0.5x --what-if=compute:2x
//   ./tcfprof prog.tcf --report=folded > prog.folded
//   ./tcfprof prog.tcf --report=html --html=flame.html --report=json --json=p.json
//   ./tcfprof prog.tcf --live=16            (tcftop: repaint every 16 steps)
//
// Accepts any input tcfrun/tcfasm accepts, plus tcffuzz corpus entries
// (`; tcffuzz corpus v1` header) — a corpus reproducer profiles with its
// recorded CRCW policy and boot directives. The profile is deterministic:
// the same program and machine configuration produce byte-identical
// reports.
//
// Exit codes: 0 = completed, 1 = the profiled program faulted or hit the
// step limit (requested reports are still rendered from the partial
// profile), 2 = usage error or an output destination could not be written.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#if defined(_WIN32)
#include <io.h>
#define TCFPROF_ISATTY(fd) _isatty(fd)
#else
#include <unistd.h>
#define TCFPROF_ISATTY(fd) isatty(fd)
#endif

#include "conformance/corpus.hpp"
#include "isa/assembler.hpp"
#include "lang/codegen.hpp"
#include "prof/report.hpp"
#include "tcf/kernels.hpp"
#include "cli_common.hpp"

namespace {

using namespace tcfpn;

struct ProfOptions {
  std::vector<std::string> reports;  ///< render order as given on the line
  std::size_t top = 10;
  prof::HotspotBy by = prof::HotspotBy::kPc;
  std::vector<prof::WhatIf> what_ifs;
  std::string html_path = "profile.html";
  std::string json_path = "-";
  std::uint64_t live_every = 0;  ///< > 0: tcftop mode, repaint cadence
};

void prof_usage() {
  std::printf(
      "tcfprof-specific options (the options above also apply):\n"
      "  --report=LIST     comma list of reports to render, in order:\n"
      "                    summary (default), hotspots, steps, folded,\n"
      "                    html, json\n"
      "  --top=N           hotspot rows to show (default 10)\n"
      "  --by=KIND         hotspot axis: pc (default), tcf, group, term\n"
      "  --what-if=SPEC    Amdahl what-if multiplier for the steps report,\n"
      "                    e.g. net:0.5x or compute:2x (repeatable, once per\n"
      "                    term; scalable terms: compute, net, fault, fill)\n"
      "  --html=F          destination for --report=html (default\n"
      "                    profile.html; '-' for stdout)\n"
      "  --json=F          destination for --report=json (default stdout)\n"
      "  --live=N          tcftop: run interactively, repainting a per-group\n"
      "                    attribution table every N machine steps\n");
}

bool valid_report(const std::string& r) {
  return r == "summary" || r == "hotspots" || r == "steps" || r == "folded" ||
         r == "html" || r == "json";
}

/// One frame of the tcftop live view: a per-group × per-term cycle table
/// aggregated from the profile so far, plus the machine-level sentinel row.
void paint_live(const machine::Machine& m, std::uint64_t max_steps) {
  const prof::Profile& p = m.profile();
  const auto& st = m.stats();
  if (TCFPROF_ISATTY(1)) std::printf("\x1b[2J\x1b[H");
  std::printf("tcftop — step %llu / cycles %llu — attributed %llu — "
              "utilization %.3f\n",
              static_cast<unsigned long long>(st.steps),
              static_cast<unsigned long long>(st.cycles),
              static_cast<unsigned long long>(p.attributed()),
              st.utilization());
  if (st.steps >= max_steps) std::printf("(step limit reached)\n");

  // Column totals per (group, term); group -1 is the machine sentinel.
  std::vector<std::vector<Cycle>> rows;  // [group+1][term]
  rows.assign(m.config().groups + 1, std::vector<Cycle>(prof::kNumTerms, 0));
  for (const auto& [key, c] : p.cells) {
    const std::size_t r =
        key.group == prof::kNoIndex ? 0
                                    : static_cast<std::size_t>(key.group) + 1;
    if (r < rows.size()) rows[r][static_cast<std::size_t>(key.term)] += c;
  }
  std::printf("%-8s", "group");
  for (std::size_t t = 0; t < prof::kNumTerms; ++t) {
    std::printf(" %9s", prof::to_string(static_cast<prof::Term>(t)));
  }
  std::printf(" %11s\n", "total");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    Cycle total = 0;
    for (Cycle c : rows[r]) total += c;
    if (r > 0 && total == 0) continue;  // quiet group: skip the noise row
    if (r == 0) {
      std::printf("%-8s", "machine");
    } else {
      std::printf("g%-7zu", r - 1);
    }
    for (Cycle c : rows[r]) {
      std::printf(" %9llu", static_cast<unsigned long long>(c));
    }
    std::printf(" %11llu\n", static_cast<unsigned long long>(total));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // tcfprof-specific flags are peeled off before the shared parser (which
  // rejects unknown options).
  ProfOptions po;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  bool want_help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (arg == "--help" || arg == "-h") {
      want_help = true;
      rest.push_back(argv[i]);
    } else if (cli::parse_flag(arg, "report", &v)) {
      // Comma list, order preserved.
      std::size_t pos = 0;
      while (pos <= v.size()) {
        const std::size_t comma = v.find(',', pos);
        const std::string r =
            v.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!valid_report(r)) {
          std::fprintf(stderr, "tcfprof: unknown report '%s'\n", r.c_str());
          return 2;
        }
        po.reports.push_back(r);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (cli::parse_flag(arg, "top", &v)) {
      std::uint64_t n = 0;
      if (!cli::parse_uint(v, "top", 1, 1u << 20, &n)) return 2;
      po.top = static_cast<std::size_t>(n);
    } else if (cli::parse_flag(arg, "by", &v)) {
      if (!prof::hotspot_by_from_string(v, &po.by)) {
        std::fprintf(stderr,
                     "tcfprof: --by must be pc, tcf, group or term, got "
                     "'%s'\n",
                     v.c_str());
        return 2;
      }
    } else if (cli::parse_flag(arg, "what-if", &v)) {
      prof::WhatIf w;
      if (!prof::parse_what_if(v, &w)) {
        std::fprintf(stderr,
                     "tcfprof: bad --what-if '%s' (want e.g. net:0.5x; "
                     "scalable terms: compute, net, fault, fill)\n",
                     v.c_str());
        return 2;
      }
      for (const prof::WhatIf& prev : po.what_ifs) {
        if (prev.term == w.term) {
          std::fprintf(stderr, "tcfprof: --what-if: term %s given twice\n",
                       prof::to_string(w.term));
          return 2;
        }
      }
      po.what_ifs.push_back(w);
    } else if (cli::parse_flag(arg, "html", &v)) {
      if (v.empty()) {
        std::fprintf(stderr, "tcfprof: --html needs a file name\n");
        return 2;
      }
      po.html_path = v;
    } else if (cli::parse_flag(arg, "json", &v)) {
      if (v.empty()) {
        std::fprintf(stderr, "tcfprof: --json needs a file name\n");
        return 2;
      }
      po.json_path = v;
    } else if (cli::parse_flag(arg, "live", &v)) {
      if (!cli::parse_uint(v, "live", 1, 1u << 30, &po.live_every)) return 2;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (po.reports.empty()) po.reports.push_back("summary");

  cli::Options opt;
  if (!cli::parse_args(static_cast<int>(rest.size()), rest.data(), "tcfprof",
                       "program under the attribution profiler", &opt)) {
    if (want_help) prof_usage();
    return 2;
  }
  opt.cfg.profile = true;  // the whole point of this tool

  try {
    const std::string text = cli::read_file(opt.input);
    isa::Program program;
    std::function<void(machine::Machine&)> boot;
    machine::MachineConfig cfg = opt.cfg;

    if (text.rfind("; tcffuzz corpus v1", 0) == 0) {
      const conformance::DiffCase c = conformance::parse_case(text);
      program = c.program;
      cfg.crcw = c.policy;  // the reproducer's policy, not the CLI default
      const std::size_t entry = program.entry();
      if (c.esm_boot) {
        const std::uint32_t flows = c.boot_flows;
        boot = [entry, flows](machine::Machine& m) {
          tcf::kernels::boot_esm_threads(m, entry, flows);
        };
      } else {
        const Word t = c.boot_thickness;
        boot = [t](machine::Machine& m) { m.boot(t); };
      }
    } else {
      if (opt.input.size() >= 4 &&
          opt.input.compare(opt.input.size() - 4, 4, ".tcf") == 0) {
        program = lang::compile_source(text).program;
      } else {
        program = isa::assemble(text);
      }
      const Word t = opt.boot_thickness;
      boot = [t](machine::Machine& m) { m.boot(t); };
    }

    machine::Machine m(cfg);
    m.load(program);
    boot(m);

    cli::StreamSession stream;
    if (!stream.open(opt, "tcfprof", m)) return 2;

    cli::RunOutcome outcome;
    if (po.live_every > 0) {
      // tcftop: drive the step loop ourselves, repainting the attribution
      // table every N steps. The final frame doubles as the summary.
      try {
        bool progressed = true;
        std::uint64_t since_paint = 0;
        while (progressed && !m.done() && m.stats().steps < opt.max_steps) {
          progressed = m.step();
          if (++since_paint >= po.live_every) {
            paint_live(m, opt.max_steps);
            since_paint = 0;
          }
        }
        outcome.run.completed = m.done();
      } catch (const SimError& e) {
        outcome.faulted = true;
        outcome.fault_message = e.what();
      }
      outcome.run.steps = m.stats().steps;
      outcome.run.cycles = m.stats().cycles;
      stream.finish(m, outcome);
      paint_live(m, opt.max_steps);
      if (outcome.faulted) {
        obs::error("tcfprof", outcome.fault_message);
      }
      return !outcome.faulted && outcome.run.completed ? 0 : 1;
    }

    outcome = cli::run_with_fault_capture(m, opt.max_steps);
    stream.finish(m, outcome);
    if (outcome.faulted) {
      obs::error("tcfprof",
                 outcome.fault_message + " (profiling the partial run)");
    }

    machine::MetaPairs meta = {{"tool", "tcfprof"}, {"input", opt.input}};
    if (outcome.faulted) {
      meta.emplace_back("fault", outcome.fault_message);
      meta.emplace_back("fault_class",
                        debug::classify_fault(outcome.fault_message));
    }
    const prof::RunInfo info =
        machine::profile_run_info(m, outcome.run, opt.input, meta);
    const prof::Profile& p = m.profile();

    for (const std::string& r : po.reports) {
      if (r == "summary") {
        std::fputs(prof::report_summary(p, info).c_str(), stdout);
      } else if (r == "hotspots") {
        std::fputs(prof::report_hotspots(p, info, po.by, po.top).c_str(),
                   stdout);
      } else if (r == "steps") {
        std::fputs(prof::report_steps(p, info, po.what_ifs).c_str(), stdout);
      } else if (r == "folded") {
        std::fputs(prof::report_folded(p, info).c_str(), stdout);
      } else if (r == "html") {
        if (!cli::write_document(po.html_path, prof::report_html(p, info),
                                 "tcfprof")) {
          return 2;
        }
        if (po.html_path != "-") {
          std::fprintf(stderr, "tcfprof: flame graph written to %s\n",
                       po.html_path.c_str());
        }
      } else if (r == "json") {
        if (!cli::write_document(po.json_path, prof::report_json(p, info),
                                 "tcfprof")) {
          return 2;
        }
      }
    }
    return !outcome.faulted && outcome.run.completed ? 0 : 1;
  } catch (const SimError& e) {
    std::fprintf(stderr, "tcfprof: %s\n", e.what());
    return 2;
  }
}
