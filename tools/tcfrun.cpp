// tcfrun — compile a TCF source file and run it on the simulator.
//
//   ./tcfrun examples/programs/scan.tcf --trace
//   ./tcfrun prog.tcf --variant=balanced --bound=8 --groups=8
//   ./tcfrun racy.tcf --post-mortem=- --metrics-json=run.json
//   ./tcfrun prog.tcf --inject-faults=seed=7,drop=0.01,kill=0.002
//       --recover=rollback --metrics-json=-   (one command line)
//   ./tcfrun spin.tcf --max-steps=5000 --post-mortem=-
//
// Exit codes: 0 = completed, 1 = fault or (implicit) step limit, 2 = usage
// error or an exporter destination could not be written, 3 = an explicit
// --max-steps watchdog expired (the program did not terminate within its
// budget). A faulting run still writes every requested telemetry document
// (the fault lands in the run metadata) plus, with --post-mortem, a
// flight-record JSON of the machine's last moments; a watchdog stop writes
// a synthesized "watchdog"-class post-mortem.
#include <cstdio>
#include <optional>

#include "lang/codegen.hpp"
#include "machine/machine.hpp"
#include "resil/recovery.hpp"
#include "cli_common.hpp"

namespace {

using namespace tcfpn;

resil::RecoverMode recover_mode(const std::string& name) {
  if (name == "degrade") return resil::RecoverMode::kDegrade;
  if (name == "off") return resil::RecoverMode::kOff;
  return resil::RecoverMode::kRollback;
}

void print_resil_summary(const resil::ResilStats& s) {
  std::printf(
      "resilience: %llu faults injected, %llu retries, %llu rollbacks "
      "(%llu steps lost), %llu groups retired (thickness %lld remapped), "
      "%llu ECC corrections, %llu watchdog escalations\n",
      static_cast<unsigned long long>(s.faults_injected),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.rollbacks),
      static_cast<unsigned long long>(s.steps_lost),
      static_cast<unsigned long long>(s.groups_retired),
      static_cast<long long>(s.remapped_thickness),
      static_cast<unsigned long long>(s.ecc_corrections),
      static_cast<unsigned long long>(s.watchdog_escalations));
}

/// Writes the --post-mortem document for a watchdog stop: no SimError ever
/// fired, so the FaultRecord is synthesized with class "watchdog".
bool export_watchdog_post_mortem(const machine::Machine& m,
                                 const debug::Journal& journal,
                                 const cli::Options& opt) {
  debug::FaultRecord fr;
  fr.message = "watchdog: step limit of " + std::to_string(opt.max_steps) +
               " machine steps exceeded without termination";
  fr.fault_class = "watchdog";
  fr.step = m.stats().steps;
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"tool", "tcfrun"}, {"input", opt.input}};
  return cli::write_document(opt.post_mortem,
                             debug::post_mortem_json(m, journal, fr, meta),
                             "tcfrun");
}

}  // namespace

int main(int argc, char** argv) {
  cli::Options opt;
  if (!cli::parse_args(argc, argv, "tcfrun", "TCF source program", &opt,
                       /*faults=*/true)) {
    return 2;
  }
  // The fault spec is user input: reject it as a usage error (exit 2), not a
  // simulated fault, before anything runs.
  resil::ResilConfig rc;
  const bool resilient = !opt.inject_faults.empty();
  if (resilient) {
    try {
      rc.spec = resil::parse_fault_spec(opt.inject_faults);
    } catch (const SimError& e) {
      std::fprintf(stderr, "tcfrun: %s\n", e.what());
      return 2;
    }
    rc.mode = recover_mode(opt.recover);
    rc.max_steps = opt.max_steps;
  }
  try {
    const auto compiled = lang::compile_source(cli::read_file(opt.input));
    if (opt.listing) {
      std::printf("%s", compiled.program.listing().c_str());
      std::printf("data segment: words %llu..%llu\n",
                  static_cast<unsigned long long>(compiled.heap_base),
                  static_cast<unsigned long long>(compiled.heap_end));
    }
    machine::Machine m(opt.cfg);
    m.load(compiled.program);

    cli::RunOutcome outcome;
    // Journal source for post-mortems: the resilient executor's recorder, or
    // the ride-along recorder attached only when a post-mortem was asked for
    // (the default run stays observer-free).
    debug::FlightRecorder recorder(
        debug::RecorderConfig{.journal_capacity = 4096, .checkpoint_every = 0});
    const debug::FlightRecorder* pm_rec = &recorder;
    std::optional<resil::ResilientExecutor> ex;  // outlives pm_rec uses
    cli::StreamSession stream;
    if (resilient) {
      m.boot(opt.boot_thickness);
      ex.emplace(m, rc);
      // Stream chains onto the executor's recorder: attach after, detach
      // (inside finish) before the executor goes away.
      if (!stream.open(opt, "tcfrun", m)) return 2;
      const resil::ResilResult r = ex->run();
      outcome.run = r.run;
      outcome.faulted = r.faulted;
      outcome.fault_message = r.fault_message;
      stream.finish(m, outcome);
      pm_rec = &ex->recorder();
      if (outcome.faulted) {
        obs::error("tcfrun", outcome.fault_message);
      } else {
        cli::print_outcome(m, outcome.run, opt);
      }
      if (opt.stats) print_resil_summary(r.resil);
      if (!cli::export_telemetry(m, outcome, opt, "tcfrun")) return 2;
      if (!opt.post_mortem.empty() && outcome.faulted) {
        const std::vector<std::pair<std::string, std::string>> meta = {
            {"tool", "tcfrun"},
            {"input", opt.input},
            {"fault_spec", opt.inject_faults},
            {"recover", opt.recover}};
        if (!cli::write_document(
                opt.post_mortem,
                debug::post_mortem_json(m, ex->recorder(), meta), "tcfrun")) {
          return 2;
        }
      }
    } else {
      if (!opt.post_mortem.empty()) recorder.attach(m);
      if (!stream.open(opt, "tcfrun", m)) return 2;
      m.boot(opt.boot_thickness);
      outcome = cli::run_with_fault_capture(m, opt.max_steps);
      stream.finish(m, outcome);
      if (outcome.faulted) {
        obs::error("tcfrun", outcome.fault_message);
      } else {
        cli::print_outcome(m, outcome.run, opt);
      }
      if (!cli::export_telemetry(m, outcome, opt, "tcfrun")) return 2;
      if (!opt.post_mortem.empty() && outcome.faulted &&
          !cli::export_post_mortem(m, recorder, opt, "tcfrun")) {
        return 2;
      }
    }

    // Watchdog: an explicit --max-steps that expires is a diagnosed
    // non-termination, reported distinctly from a fault.
    const bool watchdog =
        !outcome.faulted && !outcome.run.completed && opt.max_steps_set;
    if (watchdog) {
      obs::error("tcfrun/watchdog",
                 "no termination within " + std::to_string(opt.max_steps) +
                     " machine steps");
      if (!opt.post_mortem.empty() &&
          !export_watchdog_post_mortem(m, pm_rec->journal(), opt)) {
        return 2;
      }
      return 3;
    }

    // Dump declared arrays/cells so programs have observable results even
    // without print statements.
    if (!outcome.faulted && opt.stats) {
      for (const auto& [name, buf] : compiled.arrays) {
        std::printf("  %s =", name.c_str());
        const std::size_t show = std::min<std::size_t>(buf.size, 16);
        for (std::size_t i = 0; i < show; ++i) {
          std::printf(" %lld",
                      static_cast<long long>(m.shared().peek(buf.at(i))));
        }
        if (show < buf.size) std::printf(" ... (%zu words)", buf.size);
        std::printf("\n");
      }
    }
    return !outcome.faulted && outcome.run.completed ? 0 : 1;
  } catch (const SimError& e) {
    obs::error("tcfrun", e.what());
    return 1;
  }
}
