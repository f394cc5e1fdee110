// tcffuzz — differential conformance fuzzer for the PRAM-NUMA simulator.
//
// Generates seeded random TCF programs, runs each through the sequential
// reference oracle and every applicable machine variant, and reports the
// first divergence as a delta-debugged minimal reproducer in the corpus
// format (tests/corpus/*.s).
//
// Exit codes: 0 all runs agree, 1 divergence found, 2 usage error.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "conformance/corpus.hpp"
#include "conformance/diff.hpp"
#include "conformance/gen.hpp"
#include "conformance/shrink.hpp"
#include "cli_common.hpp"

namespace {

using namespace tcfpn;
using namespace tcfpn::conformance;

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::uint64_t runs = 500;
  std::uint64_t max_stmts = 18;
  std::uint64_t fault_seed = 0;  ///< 0 = no fault-injection lanes
  std::uint64_t shape_seed = 0;  ///< 0 = no heterogeneous-shape lanes
  bool allow_errors = true;
  bool verbose = false;
  std::string save_dir;     ///< write minimized reproducers here
  std::string replay_path;  ///< corpus file or directory to replay
  std::string inject_bug;   ///< "common-crcw" | "prefix-order"
  DiffOptions diff;
};

void usage() {
  std::printf(
      "usage: tcffuzz [options]\n"
      "  differential conformance fuzzer: random TCF programs through the\n"
      "  sequential oracle and all applicable machine variants\n\n"
      "options:\n"
      "  --runs=N          programs to generate (default 500)\n"
      "  --seed=S          first seed; run i uses seed S+i (default 1)\n"
      "  --max-stmts=N     statement budget per generated body (default 18)\n"
      "  --variants=CSV    run only these variants' lanes\n"
      "  --fault-seed=S    also run every machine lane under the deterministic\n"
      "                    fault schedule for seed S+i with rollback recovery;\n"
      "                    recovered runs must match the fault-free oracle\n"
      "                    bit-for-bit (0 = off, the default)\n"
      "  --shape-seed=S    also run heterogeneous-shape lanes: run i samples\n"
      "                    a machine shape (per-group T_p/clock/pipeline/NUMA\n"
      "                    rows) from seed S+i for every schedule-robust lane,\n"
      "                    and checks that a declared-but-default shape stays\n"
      "                    bit-identical to the uniform machine (0 = off)\n"
      "  --no-errors       skip expected-SimError programs\n"
      "  --save=DIR        write each minimized reproducer to DIR\n"
      "  --replay=PATH     replay a corpus file or directory instead of\n"
      "                    generating (oracle re-judges every entry)\n"
      "  --inject-bug=B    harness self-test: deliberately mis-implement the\n"
      "                    oracle (common-crcw | prefix-order) and require\n"
      "                    the fuzzer to find + shrink a reproducer\n"
      "  -v                print every seed as it runs\n");
}

bool parse(int argc, char** argv, FuzzOptions* o) {
  // Accept both `--flag=value` and `--flag value` for the value options.
  static const char* kValueFlags[] = {
      "--runs",       "--seed",       "--max-stmts", "--variants", "--save",
      "--replay",     "--inject-bug", "--fault-seed", "--shape-seed"};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    for (const char* f : kValueFlags) {
      if (arg == f && i + 1 < argc) {
        arg += "=";
        arg += argv[++i];
        break;
      }
    }
    std::string v;
    if (arg == "--help" || arg == "-h") {
      usage();
      return false;
    } else if (arg == "-v") {
      o->verbose = true;
    } else if (arg == "--no-errors") {
      o->allow_errors = false;
    } else if (cli::parse_flag(arg, "runs", &v)) {
      if (!cli::parse_uint(v, "runs", 1, 1u << 24, &o->runs)) return false;
    } else if (cli::parse_flag(arg, "seed", &v)) {
      if (!cli::parse_uint(v, "seed", 0, ~std::uint64_t{0} >> 1, &o->seed)) {
        return false;
      }
    } else if (cli::parse_flag(arg, "max-stmts", &v)) {
      if (!cli::parse_uint(v, "max-stmts", 4, 64, &o->max_stmts)) return false;
    } else if (cli::parse_flag(arg, "fault-seed", &v)) {
      if (!cli::parse_uint(v, "fault-seed", 0, ~std::uint64_t{0} >> 1,
                           &o->fault_seed)) {
        return false;
      }
    } else if (cli::parse_flag(arg, "shape-seed", &v)) {
      if (!cli::parse_uint(v, "shape-seed", 0, ~std::uint64_t{0} >> 1,
                           &o->shape_seed)) {
        return false;
      }
    } else if (cli::parse_flag(arg, "save", &v)) {
      o->save_dir = v;
    } else if (cli::parse_flag(arg, "replay", &v)) {
      o->replay_path = v;
    } else if (cli::parse_flag(arg, "inject-bug", &v)) {
      if (v == "common-crcw") {
        o->diff.oracle_skip_common = true;
      } else if (v == "prefix-order") {
        o->diff.oracle_reverse_prefix = true;
      } else {
        std::fprintf(stderr, "unknown --inject-bug '%s'\n", v.c_str());
        return false;
      }
      o->inject_bug = v;
    } else if (cli::parse_flag(arg, "variants", &v)) {
      std::size_t pos = 0;
      while (pos <= v.size()) {
        const std::size_t comma = std::min(v.find(',', pos), v.size());
        const std::string name = v.substr(pos, comma - pos);
        using machine::Variant;
        Variant var;
        if (name == "single-instruction") var = Variant::kSingleInstruction;
        else if (name == "balanced") var = Variant::kBalanced;
        else if (name == "multi-instruction") var = Variant::kMultiInstruction;
        else if (name == "single-operation") var = Variant::kSingleOperation;
        else if (name == "config-single-operation") var = Variant::kConfigSingleOperation;
        else if (name == "fixed-thickness") var = Variant::kFixedThickness;
        else {
          std::fprintf(stderr, "unknown variant '%s'\n", name.c_str());
          return false;
        }
        o->diff.only_variants.push_back(var);
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage();
      return false;
    }
  }
  return true;
}

/// Reports one divergence; shrinks and saves when possible. `diff` must be
/// the exact options the divergence was found under (fault_seed included),
/// or the shrinker could not reproduce it.
void report(const FuzzOptions& o, const DiffOptions& diff, std::uint64_t seed,
            const GenProgram& gp, const Divergence& d) {
  std::fprintf(stderr, "seed %llu DIVERGES on lane '%s': %s\n",
               static_cast<unsigned long long>(seed), d.lane.c_str(),
               d.detail.c_str());
  const ShrinkResult shrunk = shrink(gp, d, diff);
  const DiffCase c = to_case(shrunk.program);
  std::fprintf(stderr,
               "  shrunk to %zu statements / %zu instructions "
               "(%zu attempts): lane '%s': %s\n",
               stmt_count(shrunk.program), c.program.code.size(),
               shrunk.attempts, shrunk.divergence.lane.c_str(),
               shrunk.divergence.detail.c_str());
  std::string path;
  if (!o.save_dir.empty()) {
    std::filesystem::create_directories(o.save_dir);
    path = o.save_dir + "/diverge_seed" + std::to_string(seed) + ".s";
    save_case(c, path);
    std::fprintf(stderr, "  reproducer written to %s\n", path.c_str());
    // Every saved divergence ships its flight record: the shrunken case
    // replayed on the diverging lane with the recorder attached, rendered
    // as a tcfpn-postmortem-v1 document (class "divergence" when the lane
    // completed but disagreed).
    const std::string pm_path =
        o.save_dir + "/diverge_seed" + std::to_string(seed) +
        ".postmortem.json";
    try {
      const std::string doc =
          flight_record_json(c, shrunk.divergence, diff.max_steps);
      std::ofstream pm(pm_path);
      if (pm) {
        pm << doc;
        std::fprintf(stderr, "  flight record written to %s\n",
                     pm_path.c_str());
      } else {
        std::fprintf(stderr, "  cannot write %s\n", pm_path.c_str());
      }
    } catch (const SimError& e) {
      std::fprintf(stderr, "  flight-record replay failed: %s\n", e.what());
    }
  }
  std::fprintf(stderr, "--- minimized reproducer ---\n%s",
               serialize_case(c).c_str());
}

int replay(const FuzzOptions& o) {
  std::vector<std::string> files;
  if (std::filesystem::is_directory(o.replay_path)) {
    files = corpus_files(o.replay_path);
  } else {
    files.push_back(o.replay_path);
  }
  if (files.empty()) {
    std::fprintf(stderr, "no corpus entries under '%s'\n",
                 o.replay_path.c_str());
    return 2;
  }
  int rc = 0;
  for (const std::string& f : files) {
    try {
      const DiffCase c = load_case(f);
      if (auto d = run_differential(c, o.diff)) {
        std::fprintf(stderr, "%s DIVERGES on lane '%s': %s\n", f.c_str(),
                     d->lane.c_str(), d->detail.c_str());
        rc = 1;
      } else if (o.verbose) {
        std::printf("%s ok\n", f.c_str());
      }
    } catch (const SimError& e) {
      std::fprintf(stderr, "%s: %s\n", f.c_str(), e.what());
      rc = 2;
    }
  }
  if (rc == 0) {
    std::printf("replayed %zu corpus entries, all agree with the oracle\n",
                files.size());
  }
  return rc;
}

int fuzz(const FuzzOptions& o) {
  std::uint64_t divergences = 0;
  for (std::uint64_t i = 0; i < o.runs; ++i) {
    const std::uint64_t seed = o.seed + i;
    GenOptions gen_opt;
    gen_opt.seed = seed;
    gen_opt.max_stmts = o.max_stmts;
    gen_opt.allow_errors = o.allow_errors;
    const GenProgram gp = generate(gen_opt);
    if (o.verbose) {
      std::printf("seed %llu: %zu statements\n",
                  static_cast<unsigned long long>(seed), stmt_count(gp));
    }
    DiffOptions diff = o.diff;
    // A fresh fault schedule per run: the same program under different fault
    // timings is a different resilience test.
    if (o.fault_seed != 0) diff.fault_seed = o.fault_seed + i;
    // Likewise a fresh machine shape per run: the same program on different
    // heterogeneous machines is a different conformance test.
    if (o.shape_seed != 0) diff.shape_seed = o.shape_seed + i;
    try {
      if (auto d = run_differential(gp, diff)) {
        report(o, diff, seed, gp, *d);
        ++divergences;
        if (o.inject_bug.empty()) return 1;  // real bug: stop at the first
        break;  // self-test: one shrunk reproducer is the deliverable
      }
    } catch (const SimError& e) {
      std::fprintf(stderr, "seed %llu: harness fault: %s\n",
                   static_cast<unsigned long long>(seed), e.what());
      return 1;
    }
  }
  if (!o.inject_bug.empty()) {
    if (divergences == 0) {
      std::fprintf(stderr,
                   "--inject-bug=%s: the broken oracle was NOT caught in "
                   "%llu runs\n",
                   o.inject_bug.c_str(),
                   static_cast<unsigned long long>(o.runs));
      return 1;
    }
    std::printf("--inject-bug=%s: caught and shrunk a divergence\n",
                o.inject_bug.c_str());
    return 0;
  }
  std::printf("%llu programs, all executions agree with the oracle\n",
              static_cast<unsigned long long>(o.runs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions o;
  if (!parse(argc, argv, &o)) return 2;
  if (!o.replay_path.empty()) return replay(o);
  return fuzz(o);
}
