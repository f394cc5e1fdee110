// Versioned frame protocol for sharded execution (DESIGN.md §14).
//
// Every message between the supervisor and a worker is one length-prefixed
// frame: a fixed 32-byte header followed by a type-specific payload.
//
//   offset  field        meaning
//   ------  -----------  -------------------------------------------------
//   0       magic  u32   0x54434653 "TCFS" (LE on the wire)
//   4       ver    u16   kWireVersion; receivers reject any other value
//   6       type   u16   FrameType
//   8       shard  u32   sender's shard id (kSupervisorId for the parent)
//   12      crc    u32   CRC-32 (IEEE 802.3, reflected) of step || payload
//   16      step   u64   lockstep step index the frame belongs to
//   24      len    u64   payload byte count
//   32      payload...
//
// All integers travel little-endian — the same convention as the TCFCKPT
// checkpoint format — and a batch holds only integers, strings and vectors
// in a fixed order, so it serializes to identical bytes on every replica.
// The CRC — covering the step field and the payload — plus the header
// magic/version/length checks are the babble detection surface: the
// transport flips one byte of an injected shard_babble frame and
// decode_frame reports it malformed. The only unprotected field is the
// sender's self-reported shard id, which receivers never trust anyway
// (workers are indexed by link).
//
// The CRC does NOT cover the len field, so a corrupted length passes the
// checksum: decode_header therefore rejects any len above kMaxPayloadBytes
// outright. Receivers never allocate for — let alone read — a length the
// header check has not bounded; a babbling peer costs at most one bounded
// buffer, never heap corruption or std::bad_alloc.
//
// Payload codecs return false on malformed input instead of throwing — a
// babbling peer must classify as kMalformed, never crash the supervisor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/shard_step.hpp"

namespace tcfpn::shard {

inline constexpr std::uint32_t kMagic = 0x54434653u;  // "TCFS"
inline constexpr std::uint16_t kWireVersion = 3;
/// `shard` header value used by the supervisor end of a link.
inline constexpr std::uint32_t kSupervisorId = 0xffffffffu;
inline constexpr std::size_t kHeaderBytes = 32;
/// Hard ceiling on a frame's payload. Large enough for any checkpoint blob
/// the supervisor itself can hold in memory, small enough that a corrupted
/// len field (unprotected by the CRC) can never provoke a wrapping resize
/// or an unbounded allocation. Senders enforce it too (TCFPN_CHECK), so a
/// legitimately oversized frame fails loudly at the source instead of
/// classifying the healthy receiver's peer as babbling.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

enum class FrameType : std::uint16_t {
  kHello = 1,    ///< worker -> supervisor: fingerprints (handshake)
  kStart = 2,    ///< supervisor -> worker: ownership mask (+ state blob)
  kBeginStep = 3,  ///< supervisor -> worker: execute the next step
  kHeartbeat = 4,  ///< worker -> supervisor: alive (one per begin-step)
  kBatch = 5,    ///< worker -> supervisor: one owned group's effect batch
  kCommit = 6,   ///< supervisor -> worker: merge succeeded; all batches
  kRollback = 7,  ///< supervisor -> worker: rewind to blob (+ retire list)
  kShutdown = 8,  ///< supervisor -> worker: run over, exit cleanly
  kRollbackAck = 9,  ///< worker -> supervisor: rewind done. The resync
                     ///< barrier: everything a worker sent before the ack is
                     ///< a stale frame of the aborted step, and the
                     ///< supervisor drains up to the ack before resuming.
};

const char* to_string(FrameType t);

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::uint32_t shard = kSupervisorId;
  StepId step = 0;
  std::vector<std::uint8_t> payload;
};

/// CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320).
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// Serializes header + payload (computing the CRC).
std::vector<std::uint8_t> encode_frame(const Frame& f);

/// Parsed header fields of an incoming frame.
struct FrameHeader {
  FrameType type = FrameType::kHeartbeat;
  std::uint32_t shard = 0;
  std::uint32_t crc = 0;
  StepId step = 0;
  std::uint64_t payload_len = 0;
};

/// Parses the 32-byte header. False on bad magic/version/unknown type.
bool decode_header(const std::uint8_t* hdr, FrameHeader* out);

/// Assembles a Frame from a parsed header and its payload bytes, checking
/// the CRC. False on a CRC mismatch.
bool assemble_frame(const FrameHeader& h, std::vector<std::uint8_t> payload,
                    Frame* out);

/// Decodes one complete encoded frame (header + payload in one buffer).
bool decode_frame(const std::vector<std::uint8_t>& bytes, Frame* out);

// ----- payload codecs -----

/// kHello: the worker announces itself; the supervisor rejects a worker
/// whose machine or program differs (config drift across exec).
struct HelloPayload {
  std::uint32_t shard = 0;
  std::uint64_t config_fp = 0;
  std::uint64_t program_fp = 0;
};

/// kStart: per-group ownership mask plus an optional TCFCKPT state blob
/// (empty = boot fresh; nonempty = restart-from-checkpoint), plus the
/// supervisor's heartbeat deadline so the worker can pace its compute-phase
/// heartbeat pulse (0 disables the pulse).
struct StartPayload {
  std::vector<std::uint8_t> owned;
  std::vector<std::uint8_t> state;
  std::uint32_t heartbeat_ms = 0;
};

/// kRollback: rewind to the blob, then retire `retires` in ascending order
/// (empty on a pure restart rollback; the dead shard's groups on degrade).
struct RollbackPayload {
  std::vector<std::uint8_t> state;
  std::vector<GroupId> retires;
};

std::vector<std::uint8_t> encode_hello(const HelloPayload& p);
bool decode_hello(const std::vector<std::uint8_t>& bytes, HelloPayload* out);

std::vector<std::uint8_t> encode_start(const StartPayload& p);
bool decode_start(const std::vector<std::uint8_t>& bytes, StartPayload* out);

std::vector<std::uint8_t> encode_rollback(const RollbackPayload& p);
bool decode_rollback(const std::vector<std::uint8_t>& bytes,
                     RollbackPayload* out);

std::vector<std::uint8_t> encode_batch(const machine::ShardGroupBatch& b);
bool decode_batch(const std::vector<std::uint8_t>& bytes,
                  machine::ShardGroupBatch* out);

/// kCommit carries every group's batch (workers skip the ones they own), so
/// one identical commit frame broadcasts to every worker.
std::vector<std::uint8_t> encode_commit(
    const std::vector<machine::ShardGroupBatch>& batches);
bool decode_commit(const std::vector<std::uint8_t>& bytes,
                   std::vector<machine::ShardGroupBatch>* out);

}  // namespace tcfpn::shard
