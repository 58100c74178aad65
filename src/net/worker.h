// WorkerServer: the worker-process half of the distributed runner.
//
// A worker executes exactly one Host primitive remotely: train. From the
// Setup message it rebuilds the coordinator's deterministic world — same
// ExperimentConfig, same seed, hence bit-identical dataset, partition,
// model init and per-dispatch RNG streams — and then serves dispatch
// batches through Simulation::train_shard, the same code path the
// in-process host runs. Everything stateful (channel, error-feedback
// residuals, history store, aggregation, the virtual clock) stays on the
// coordinator; the per-dispatch history entry rides inside the dispatch
// message, so the worker holds no cross-batch mutable state at all. That
// statelessness is why a dispatch may execute on *any* worker: in a
// fail-fast session a dispatch is validated against the worker's shard
// (id % num_workers == worker_index); an elastic session (Setup's elastic
// flag) drops that check, because replay and work-stealing move
// dispatches between workers freely (docs/TRANSPORT.md).
//
// serve() handles one coordinator session: handshake, setup, a
// dispatch/result loop, shutdown. In an elastic session the worker
// additionally acks each dispatch batch on receipt and beats a heartbeat
// from a dedicated thread (a long local training step must not read as
// death). Protocol violations and transport failures throw (NetError /
// WireError) after a best-effort kNetError frame to the peer.
//
// One WorkerServer may serve many sessions (fl_worker's serve loop); the
// dispatch counter is cumulative across them, which is what ChaosConfig
// thresholds count — a worker that rejoins does not re-arm its own fault.
#pragma once

#include <atomic>
#include <cstdio>
#include <string>

#include "net/elastic/chaos.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace fedtrip::obs {
class FlightRecorder;
}  // namespace fedtrip::obs

namespace fedtrip::net {

/// How a session ended. Chaos endings leave the connection closed without
/// a result or error frame — exactly what a crash looks like on the wire.
enum class SessionEnd : std::uint8_t {
  kShutdown = 0,      // orderly kNetShutdown from the coordinator
  kChaosDropped = 1,  // injected connection drop (the worker survives)
  kChaosKilled = 2,   // injected crash (fl_worker exits nonzero)
};

class WorkerServer {
 public:
  /// `log` (optional) receives one-line lifecycle messages (fl_worker
  /// points it at stderr; tests pass nullptr). `chaos` arms deterministic
  /// fault injection (net/elastic/chaos.h); default = no faults.
  explicit WorkerServer(std::FILE* log = nullptr, ChaosConfig chaos = {})
      : log_(log), chaos_(chaos) {}

  /// Serves one coordinator session on a connected socket; returns how the
  /// session ended. Throws NetError / wire::WireError on transport or
  /// protocol failure (after attempting to send the diagnostic to the
  /// coordinator as a kNetError frame).
  SessionEnd serve(Socket conn);

  /// Sessions serve() was entered for (rejoin assertions in tests).
  std::size_t sessions_served() const { return sessions_; }
  /// Dispatches executed, cumulative across sessions (the chaos axis).
  std::size_t dispatches_executed() const { return dispatches_total_; }

  /// Where a dropped connection can be redialed to rejoin the run: the
  /// coordinator's address as seen from the last session's socket, and
  /// the rejoin port its Setup carried. Host empty / port 0 when the last
  /// session offered no rejoin.
  const std::string& rejoin_host() const { return rejoin_host_; }
  std::uint16_t rejoin_port() const { return rejoin_port_; }

  /// Arms the crash flight recorder (non-owning; obs/flight.h): each
  /// session's tracer feeds its event ring, and a chaos kill or fatal
  /// error dumps `<dir>/flight-<pid>.json` — naming the last dispatch the
  /// worker held — before the process goes down.
  void set_flight_recorder(obs::FlightRecorder* rec, std::string dir) {
    flight_ = rec;
    flight_dir_ = std::move(dir);
  }

 private:
  void logf(const char* fmt, ...);

  std::FILE* log_ = nullptr;
  ChaosConfig chaos_;
  std::size_t sessions_ = 0;
  std::atomic<std::uint64_t> dispatches_total_{0};
  bool dropped_once_ = false;
  std::string rejoin_host_;
  std::uint16_t rejoin_port_ = 0;
  obs::FlightRecorder* flight_ = nullptr;
  std::string flight_dir_;
};

}  // namespace fedtrip::net
