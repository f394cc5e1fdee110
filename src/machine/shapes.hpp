// Heterogeneous machine shapes (DESIGN.md §12): named presets, a CLI spec
// parser, a telemetry summary and a seeded sampler for the fuzzer.
//
// A "shape" is the per-group half of a MachineConfig: the groups count plus
// the group_specs vector (per-group T_p, clock multiplier, pipeline depth
// and NUMA distance row). Everything here is a pure function of its inputs
// so shapes are reproducible from their spec string or seed.
#pragma once

#include <cstdint>
#include <string>

#include "machine/config.hpp"

namespace tcfpn::machine {

/// Applies a shape to `cfg`. `spec` is either a named preset —
///
///   uniform    the classic homogeneous machine (clears group_specs)
///   fat-thin   2 fat NUMA groups (T_p 64, clock 3x, deep pipe, near
///              distance row) + 6 thin PRAM-mode groups (T_p 4)
///   gpu        8 identical GPU-like fixed-thickness groups (T_p 32,
///              clock 2x, deep pipeline, crossbar-flat distance rows)
///
/// — or an explicit group list: `COUNT*key=val[,key=val...]` terms joined
/// by '+', with keys `slots=N`, `clock=N` or `clock=N/D`, `fill=N` and
/// `dist=a:b:...` (one distance per group, matching the final group
/// count). Example:
///
///   2*slots=64,clock=3/1,fill=6+6*slots=4,clock=1/2
///
/// Explicit lists set cfg.groups to the total count. Throws SimError on a
/// malformed spec. The result always passes validate_shape().
void apply_shape(MachineConfig& cfg, const std::string& spec);

/// One-line shape description for run metadata: "uniform" for the
/// homogeneous machine, else run-length-encoded per-group specs, e.g.
/// "2*slots=64,clock=3/1,fill=6,dist+6*slots=4,clock=1/2" ("dist" marks a
/// private NUMA row without spelling the whole matrix out).
std::string shape_summary(const MachineConfig& cfg);

/// Deterministic seeded sampler over the heterogeneous config space (the
/// conformance fuzzer's shape lane): keeps cfg.groups and draws per-group
/// T_p, clock multiplier, pipeline depth and an optional NUMA row from the
/// seed. Pure: the same seed always yields the same shape.
void sample_shape(MachineConfig& cfg, std::uint64_t seed);

/// Shape invariants (group_specs size, clocks >= 1, slot and row bounds).
/// Machine's constructor enforces this; throws SimError on violation.
void validate_shape(const MachineConfig& cfg);

/// Topology invariant: a hypercube joins a power-of-two number of groups.
/// Machine's constructor enforces this; throws SimError naming the
/// topology and the group count.
void validate_topology(const MachineConfig& cfg);

}  // namespace tcfpn::machine
