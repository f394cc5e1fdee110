// Binary (de)serialization of machine::MachineState.
//
// Format "TCFCKPT\4" (only the current version loads: an image is read
// back only by the process that wrote it): an 8-byte magic
// followed by a flat little-endian stream of 64-bit words. Doubles travel
// as their IEEE-754 bit patterns (std::bit_cast), so a serialize /
// deserialize round trip is bit-exact — including the Welford accumulator
// terms whose last-ulp behaviour the determinism tests pin down.
// Variable-length fields are length-prefixed; strings are length + raw
// bytes (padded to an 8-byte boundary). Maps are written in key order and
// instr_writes arrive pre-sorted from save_state(), so equal states always
// serialize to equal bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "machine/state.hpp"

namespace tcfpn::debug {

/// Serializes a checkpoint image to bytes.
std::vector<std::uint8_t> serialize(const machine::MachineState& s);

/// Parses bytes produced by serialize(). Faults (SimError) on a bad magic,
/// truncated input, or trailing bytes.
machine::MachineState deserialize(const std::vector<std::uint8_t>& bytes);

}  // namespace tcfpn::debug
