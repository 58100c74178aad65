// WorkerPool: the coordinator's handle on its worker fleet.
//
// Three ways to populate it, all ending in the same state (a handshaken,
// setup-acknowledged socket per worker, shard i of n):
//   * spawn_local  — fork/exec N `fl_worker --connect 127.0.0.1:<port>`
//                    children against a local listener (the
//                    run_experiment --workers-remote path);
//   * connect      — dial pre-started workers (`fl_worker --listen PORT`
//                    elsewhere; the run_experiment --connect path);
//   * handshake    — adopt already-connected sockets (the in-process
//                    equivalence and chaos tests drive WorkerServer threads
//                    over socketpair/loopback sockets).
//
// The handshake performs version negotiation (net/protocol.h), ships the
// Setup message with this worker's shard coordinates, and cross-checks
// the acknowledged param_dim against the coordinator's model — a config
// drift between processes fails the run at setup, not as silent numeric
// divergence mid-training.
//
// The pool is an append-only slot table: a slot is created per worker
// that ever joins, keeps its label and socket, and is disconnected
// (socket closed, slot retained) when the host evicts the worker. Slot
// indices are stable for the life of the run, so NetHost's JobTable and
// WorkerHealth share one index space with it.
//
// Setup's `elastic` bit picks the failure policy (docs/TRANSPORT.md). An
// elastic pool owns a persistent loopback Listener for the whole run: the
// dial-in point for spawn_local children *and* the rejoin door. Its port
// ships to every worker inside Setup (SetupMsg::rejoin_port); a worker
// that lost its connection may redial it, and try_admit() handshakes the
// rejoiner into a fresh slot with the retained Setup. A fail-fast pool
// opens no such door: its roster is fixed at construction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "obs/tracer.h"

namespace fedtrip::net {

class WorkerPool {
 public:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  WorkerPool(WorkerPool&&) noexcept = default;
  WorkerPool& operator=(WorkerPool&&) noexcept = default;
  /// Best-effort shutdown() if the owner did not call it.
  ~WorkerPool();

  /// Adopts connected sockets as slots 0..conns.size()-1 and runs the
  /// handshake + setup on each. `setup` carries everything but the shard
  /// coordinates (and, when elastic, the rejoin port), which the pool
  /// fills; `expected_dim` is the coordinator model's |w| for the ack
  /// check.
  static WorkerPool handshake(std::vector<Socket> conns, SetupMsg setup,
                              std::size_t expected_dim);

  /// Spawns `n` local worker processes (fork/exec of `worker_bin`) that
  /// connect back to a loopback listener — the elastic pool's rejoin door,
  /// or a throwaway one — then handshakes. A child that dies before
  /// dialing in, or a connect timeout, kills and reaps them all and
  /// throws NetError.
  static WorkerPool spawn_local(std::size_t n, const std::string& worker_bin,
                                SetupMsg setup, std::size_t expected_dim);

  /// Connects to pre-started workers at `endpoints`, then handshakes.
  static WorkerPool connect(const std::vector<Endpoint>& endpoints,
                            SetupMsg setup, std::size_t expected_dim);

  /// Setup's elastic bit: the failure policy every session runs.
  bool elastic() const { return setup_.elastic; }
  /// Slots ever created (disconnected ones included; indices are stable).
  std::size_t size() const { return conns_.size(); }
  Socket& worker(std::size_t i) { return conns_[i]; }
  /// Diagnostic label ("worker 1/2 (spawned)", "worker 4 (rejoined)").
  const std::string& label(std::size_t i) const { return labels_[i]; }
  bool connected(std::size_t i) const { return conns_[i].valid(); }
  /// Closes the slot's socket without a shutdown frame (eviction). The
  /// slot index stays valid and permanently disconnected.
  void disconnect(std::size_t i) { conns_[i].close(); }

  /// The wire codec every session negotiated in Setup (protocol v5),
  /// built from the same SetupMsg the workers parsed, so coordinator emit
  /// and worker parse can never disagree. Rejoiners handshake with the
  /// retained Setup, so it covers them too. Never null; inactive for the
  /// identity codec.
  const WireCodec* wire_codec() const { return wire_codec_.get(); }

  /// The rejoin door's port (shipped to workers in Setup); 0 when the
  /// pool is not elastic.
  std::uint16_t rejoin_port() const {
    return listener_ ? listener_->port() : 0;
  }
  /// The rejoin door's fd for the host's poll set; -1 (which poll()
  /// ignores) when the pool is not elastic.
  int listener_fd() const { return listener_ ? listener_->fd() : -1; }

  /// Accepts one pending rejoiner (non-blocking: `timeout_ms` 0 when the
  /// caller already knows the listener is readable) and handshakes it into
  /// a new slot; returns the slot index. kNoSlot when nothing was pending
  /// or the rejoiner failed its handshake (the socket is dropped and the
  /// run continues without it).
  std::size_t try_admit(int timeout_ms);

  /// One connected worker's accumulated stats (kNetStatsReq -> kNetStats,
  /// protocol v2), skipping heartbeats its beacon thread interleaves.
  /// Workers always answer (an empty report when tracing was off their
  /// side). A malformed or refused report throws NetError with the label.
  obs::TraceData stats_of(std::size_t i);

  /// stats_of() every slot: one TraceData per slot in slot order, empty
  /// for a disconnected slot, so report i belongs to label(i). Call
  /// before shutdown().
  std::vector<obs::TraceData> collect_stats();

  /// Orderly shutdown of every connected worker, then closes the rejoin
  /// door and reaps spawned children. Safe to call twice.
  void shutdown();

 private:
  /// Opens the rejoin door when `setup` is elastic and builds the codec.
  WorkerPool(SetupMsg setup, std::size_t expected_dim,
             std::size_t num_initial);

  void admit_slot(Socket conn, const std::string& label);

  SetupMsg setup_;  // retained for rejoin handshakes (indices re-stamped)
  std::shared_ptr<const WireCodec> wire_codec_;
  std::size_t expected_dim_ = 0;
  std::uint32_t num_initial_ = 0;
  std::optional<Listener> listener_;  // elastic pools only
  std::vector<Socket> conns_;
  std::vector<std::string> labels_;
  std::vector<int> child_pids_;  // spawn_local only
  bool shut_down_ = false;
};

}  // namespace fedtrip::net
