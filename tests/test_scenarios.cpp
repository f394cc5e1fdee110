// Oracle-backed TCF scenario workloads (scenarios/*.tcf) run differentially
// across machine variants, host-thread counts and machine shapes. The acceptance bar everywhere is bit-identity: full shared memory
// and the PRINT stream must match the sequential oracle exactly, and runs
// within a lane must agree down to the cycle count across host threads.
#include <gtest/gtest.h>

#include "conformance/scenario.hpp"
#include "machine/config.hpp"
#include "machine/shapes.hpp"

namespace tcfpn::conformance {
namespace {

const std::vector<Scenario>& suite() {
  static const std::vector<Scenario> s = scenario_suite(TCFPN_SCENARIOS_DIR);
  return s;
}

void expect_all_pass(const ScenarioOptions& opt) {
  for (const Scenario& s : suite()) {
    const ScenarioVerdict v = run_scenario(s, opt);
    EXPECT_TRUE(v.ok) << v.detail;
  }
}

TEST(Scenarios, SuiteLoadsAllFiveWorkloads) {
  ASSERT_EQ(suite().size(), 5u);
  const char* const names[] = {"sort", "bfs", "histogram", "spmv", "compact"};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(suite()[i].name, names[i]);
    EXPECT_FALSE(suite()[i].expected_prints.empty()) << names[i];
  }
}

// ---- full sweeps per machine shape ----
//
// Each sweep covers: single-instruction + balanced:16 + balanced:4096
// lanes, host threads {1, 2, 8}, and the placement-aware LPT lane. The
// fault_seed additionally runs every variant lane under an injected fault
// schedule recovered by checkpoint rollback — on heterogeneous shapes this
// also exercises the per-group-config checkpoint fingerprint.

TEST(Scenarios, UniformShapeFullSweepWithFaultRollback) {
  ScenarioOptions opt;
  opt.shape = "uniform";
  opt.fault_seed = 0xC0FFEE;
  expect_all_pass(opt);
}

TEST(Scenarios, FatThinShapeFullSweepWithFaultRollback) {
  ScenarioOptions opt;
  opt.shape = "fat-thin";
  opt.fault_seed = 0xBADF00D;
  expect_all_pass(opt);
}

TEST(Scenarios, GpuShapeFullSweep) {
  ScenarioOptions opt;
  opt.shape = "gpu";
  expect_all_pass(opt);
}

// An explicit spec with asymmetric NUMA distance rows: placement and the
// analytic network model change, results must not.
TEST(Scenarios, ExplicitHeterogeneousSpecWithNumaRows) {
  ScenarioOptions opt;
  opt.shape =
      "2*slots=48,clock=3,fill=6,dist=1:1:5:5+2*slots=8,fill=3,dist=5:5:1:1";
  opt.fault_seed = 7;
  expect_all_pass(opt);
}

// The shape sweep must actually be sweeping shapes: the three canonical
// specs parse into genuinely different machines.
TEST(Scenarios, CanonicalShapesAreDistinct) {
  machine::MachineConfig uniform, fat_thin, gpu;
  machine::apply_shape(uniform, "uniform");
  machine::apply_shape(fat_thin, "fat-thin");
  machine::apply_shape(gpu, "gpu");
  EXPECT_FALSE(uniform.is_heterogeneous());
  EXPECT_TRUE(fat_thin.is_heterogeneous());
  EXPECT_TRUE(gpu.is_heterogeneous());
  EXPECT_NE(machine::shape_summary(fat_thin), machine::shape_summary(gpu));
  EXPECT_NE(fat_thin.total_slots(), gpu.total_slots());
}

}  // namespace
}  // namespace tcfpn::conformance
