// Container files: the on-disk envelope around wire records.
//
// Every serialized artefact the system writes to disk — model checkpoints,
// payload fixtures — is one container: an 8-byte header (6-byte magic
// "FTWIRE", u16 version, little-endian) followed by framed records, each a
// 16-byte record header (u32 type, u32 aux, u64 length) and `length` bytes
// of record payload. Readers validate magic, version, and framing; any
// corruption throws wire::WireError. Version policy: readers accept
// exactly kVersion; a breaking layout change bumps it and must ship a read
// shim for the previous version (docs/WIRE_FORMAT.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wire/wire.h"

namespace fedtrip::wire {

inline constexpr std::uint8_t kMagic[6] = {'F', 'T', 'W', 'I', 'R', 'E'};
inline constexpr std::uint16_t kVersion = 1;
/// Container header: magic + version.
inline constexpr std::size_t kContainerHeaderBytes = 8;
/// Record header: type + aux + length.
inline constexpr std::size_t kRecordHeaderBytes = 16;

enum class RecordType : std::uint32_t {
  /// Model checkpoint: u64 parameter count + that many f32s. aux = 0.
  kCheckpoint = 1,
  /// One compressed payload message (wire/payload.h layout). aux = the
  /// payload tag (codec kind | param << 8) — identity is unframed, so the
  /// kind must live in the envelope.
  kPayload = 2,

  // Distributed-runner messages (src/net/, docs/TRANSPORT.md). On a
  // socket each one travels as a bare record frame (the 16-byte record
  // header is the length prefix — no container envelope); the same record
  // layouts are embeddable in container files, which is how the net
  // golden fixture and tools/wire_dump decode captured sessions. aux = 0
  // for all of them.
  /// Version negotiation: u16 min + u16 max supported protocol version
  /// (the coordinator's offer and the worker's echo of the chosen one).
  kNetHello = 16,
  /// Run setup shipped coordinator -> worker: method + hyperparameters +
  /// the full ExperimentConfig + this worker's shard coordinates
  /// (net/protocol.h spells the field order).
  kNetSetup = 17,
  /// Worker -> coordinator setup acknowledgement: u64 param_dim — the
  /// cross-check that both processes built the same model.
  kNetSetupAck = 18,
  /// A batch of training dispatches (snapshots + per-dispatch history).
  kNetDispatch = 19,
  /// The trained ClientUpdates of one dispatch batch, in dispatch order.
  kNetResult = 20,
  /// Orderly end of session (empty payload); the worker exits cleanly.
  kNetShutdown = 21,
  /// Fatal peer-side failure: a UTF-8 diagnostic string. The receiver
  /// surfaces it and fails the run.
  kNetError = 22,
  /// Coordinator -> worker: "ship me your accumulated stats" (empty
  /// payload). Sent before shutdown when tracing is on. Protocol >= 2.
  kNetStatsReq = 23,
  /// Worker -> coordinator: the worker's StatsReport (obs/stats.h layout —
  /// counters, gauges, timers, spans). Protocol >= 2.
  kNetStats = 24,
  /// Worker -> coordinator: periodic liveness beacon of an elastic session
  /// (u64 dispatches executed + u64 batch in execution) — the signal the
  /// coordinator's deadline-based eviction runs on. Protocol >= 3.
  kNetHeartbeat = 25,
  /// Worker -> coordinator: receipt acknowledgement of a dispatch batch
  /// (u64 batch_seq + u32 count), sent before training starts so the
  /// coordinator can tell "died holding the batch" (replay it) from "died
  /// before the frame arrived". Protocol >= 3.
  kNetDispatchAck = 26,
};

struct Record {
  RecordType type;
  std::uint32_t aux = 0;
  std::vector<std::uint8_t> bytes;
};

/// True when `data` starts with the container magic (any version).
bool is_container(const std::uint8_t* data, std::size_t size);

std::vector<std::uint8_t> write_container(const std::vector<Record>& records);
void write_container_file(const std::string& path,
                          const std::vector<Record>& records);

/// Parses a container; throws WireError on bad magic, unsupported version,
/// or truncated records.
std::vector<Record> read_container(const std::uint8_t* data, std::size_t size);

/// kCheckpoint record payload: u64 count + f32[count].
std::vector<std::uint8_t> serialize_params(const std::vector<float>& params);
std::vector<float> deserialize_params(const std::uint8_t* data,
                                      std::size_t size);

/// Reads a whole file into memory; throws std::runtime_error on I/O
/// failure (shared by the checkpoint loader and tools/wire_dump).
std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace fedtrip::wire
