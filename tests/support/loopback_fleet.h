// LoopbackFleet: the coordinator and its workers in one test process.
//
// Each worker is a thread of this process running a full WorkerServer
// session over its own loopback TCP connection, its world rebuilt from
// the wire-shipped Setup alone — exactly what a separate fl_worker
// process does (the CI smokes cover the fork/exec path). The fleet owns
// the listener, the session threads, the WorkerPool and the NetHost, and
// tears them down in the right order: pool shutdown first, then joins.
// Worker slots follow spawn order (slot i = i-th spawned), so a test that
// arms a fault on its i-th session knows which slot carries it.
//
//   testing::LoopbackFleet fleet;
//   fleet.spawn_servers(2);
//   fleet.handshake(setup, sim.param_dim());
//   fl::RunResult r = fleet.run(sim);
//   fleet.finish();
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fl/round_host.h"
#include "fl/simulation.h"
#include "net/net_host.h"
#include "net/pool.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "net/worker.h"
#include "obs/stream.h"

namespace fedtrip::testing {

/// One plain session: dial, serve until shutdown. A failing session has
/// already sent its diagnostic to the coordinator, which reports it.
inline void serve_once(std::uint16_t port) {
  try {
    net::WorkerServer server;
    server.serve(net::connect_to("127.0.0.1", port));
  } catch (const std::exception&) {
  }
}

/// The fl_worker session loop: serve, and when chaos drops the
/// connection, redial the coordinator's rejoin door and serve on. Every
/// other ending — orderly shutdown, injected kill, the socket closed under
/// us by an eviction — ends the thread.
inline void serve_and_rejoin(std::uint16_t port, net::WorkerServer* server) {
  net::Socket conn;
  try {
    conn = net::connect_to("127.0.0.1", port);
  } catch (...) {
    return;
  }
  while (true) {
    net::SessionEnd end;
    try {
      end = server->serve(std::move(conn));
    } catch (...) {
      return;  // evicted mid-session or the run is over
    }
    if (end != net::SessionEnd::kChaosDropped) return;
    conn = net::Socket();
    for (int attempt = 0; attempt < 200 && !conn.valid(); ++attempt) {
      try {
        conn = net::connect_to(server->rejoin_host(), server->rejoin_port());
      } catch (const net::NetError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    if (!conn.valid()) return;
  }
}

class LoopbackFleet {
 public:
  LoopbackFleet() : listener_(0) {}
  LoopbackFleet(const LoopbackFleet&) = delete;
  LoopbackFleet& operator=(const LoopbackFleet&) = delete;
  ~LoopbackFleet() { finish(); }

  /// Starts one session thread running `body(port)` and accepts its
  /// connection before returning, so slot i = i-th spawned session. The
  /// body must dial the fleet's listener once; one that has not dialed
  /// within kAcceptTimeoutMs throws instead of hanging the handshake.
  void spawn(std::function<void(std::uint16_t)> body) {
    threads_.emplace_back(std::move(body), listener_.port());
    net::Socket conn = listener_.accept_timeout(kAcceptTimeoutMs);
    if (!conn.valid()) {
      throw std::runtime_error("LoopbackFleet: session " +
                               std::to_string(threads_.size() - 1) +
                               " never dialed the listener");
    }
    accepted_.push_back(std::move(conn));
  }
  /// spawn()s `n` serve_once sessions.
  void spawn_servers(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) spawn(serve_once);
  }

  /// Handshakes the spawned sessions' connections into the pool in spawn
  /// order, slot i = i-th spawned. `setup.elastic` picks the policy.
  net::WorkerPool& handshake(const net::SetupMsg& setup,
                             std::size_t expected_dim) {
    pool_.emplace(net::WorkerPool::handshake(std::exchange(accepted_, {}),
                                             setup, expected_dim));
    return *pool_;
  }

  /// Trains `sim` through a NetHost over the pool. `cfg` is the elastic
  /// policy (a fail-fast pool ignores it); `metrics` streams in flight.
  fl::RunResult run(fl::Simulation& sim, net::ElasticConfig cfg = {},
                    obs::MetricsStreamer* metrics = nullptr) {
    return sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
      host_.emplace(inner, *pool_, cfg);
      host_->set_metrics(metrics);
      return *host_;
    });
  }

  net::WorkerPool& pool() { return *pool_; }
  const net::NetHost& host() const { return *host_; }

  /// Orderly pool shutdown, then joins every session. Closing the
  /// connections that were accepted but never handed to a pool first
  /// ends sessions still waiting for Hello, so a run that failed before
  /// its handshake still joins. Idempotent.
  void finish() {
    if (pool_) pool_->shutdown();
    accepted_.clear();
    listener_.close();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  static constexpr int kAcceptTimeoutMs = 30000;

  net::Listener listener_;
  std::vector<std::thread> threads_;
  std::vector<net::Socket> accepted_;  // spawn order; moved out by handshake
  std::optional<net::WorkerPool> pool_;
  std::optional<net::NetHost> host_;
};

}  // namespace fedtrip::testing
