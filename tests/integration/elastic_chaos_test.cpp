// The acceptance gate of the elastic coordinator: a socket-backed run
// whose workers are killed, slowed, dropped-and-rejoined or struck mute
// mid-run must still be bit-identical to the in-process engine — same
// full CSV, same final parameters, same byte accounting, same
// participation log — for all four scheduling policies with compression
// + error feedback + delta + churn enabled at once. Faults are injected
// deterministically by the workers themselves (net::ChaosConfig counts
// executed dispatches), so every scenario here reproduces exactly.
//
// The workers run in threads over loopback TCP, each a separate
// WorkerServer whose world is rebuilt from the wire-shipped Setup — the
// same thing fl_worker does in a separate process (the CI chaos smoke
// covers the fork/exec path). A dropped worker redials the pool's rejoin
// door the way fl_worker's serve loop does.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "fl/checkpoint.h"
#include "fl/simulation.h"
#include "net/elastic/chaos.h"
#include "net/frame.h"
#include "../fl/sim_util.h"
#include "../support/loopback_fleet.h"

namespace fedtrip {
namespace {

/// Everything-on config: error-feedback top-k uplink with delta framing,
/// qsgd downlink, a straggler network, bimodal compute, Markov churn.
///
/// At this seed the churn keeps clients 4-7 offline for the whole run, so
/// every dispatch goes to clients 0-3. Their in-process dispatch counts
/// (clients 0/1/2/3) are sync 1/4/4/4, fastk 4/4/4/4, async 4/2/1/1 and
/// deadline 2/1/1/1. Jobs are placed on active[client_id % active.size()]
/// (docs/TRANSPORT.md), so with 3 workers slot 0 owns clients {0, 3}: 5
/// of the run's dispatches under sync, 8 under fastk, 5 under async and 3
/// under deadline. Slot 0 is also the only slot whose queue ever holds two
/// jobs at once, which is what stealing needs; async and deadline send one
/// dispatch per train() call, so nothing is ever queued behind another.
fl::ExperimentConfig chaos_config() {
  fl::ExperimentConfig cfg = fl::testing::tiny_config();
  cfg.num_clients = 8;
  cfg.clients_per_round = 6;
  cfg.rounds = 4;
  cfg.comm.uplink = "ef+topk";
  cfg.comm.downlink = "qsgd8";
  cfg.comm.params.topk_fraction = 0.1f;
  cfg.comm.delta_uplink = true;
  cfg.comm.network.profile = comm::NetProfile::kStraggler;
  cfg.clients.compute_profile = "bimodal";
  cfg.clients.availability = "markov";
  cfg.clients.markov_mean_on_s = 40.0;
  cfg.clients.markov_mean_off_s = 15.0;
  return cfg;
}

fl::RunResult run_in_process(const fl::ExperimentConfig& cfg) {
  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  return sim.run();
}

struct ElasticRun {
  fl::RunResult result;
  net::ElasticStats stats;
  std::vector<net::EvictReason> reasons;  // per slot, at end of run
  std::vector<std::unique_ptr<net::WorkerServer>> servers;
};

/// One elastic run with `chaos.size()` worker threads, chaos[i] armed on
/// servers[i]; slot i = chaos[i] (LoopbackFleet assigns slots in spawn
/// order).
ElasticRun run_elastic(const fl::ExperimentConfig& cfg,
                       const std::vector<net::ChaosConfig>& chaos,
                       net::ElasticConfig ecfg = {},
                       double heartbeat_interval_s = 0.05) {
  ElasticRun out;
  testing::LoopbackFleet fleet;
  for (const net::ChaosConfig& c : chaos) {
    out.servers.push_back(std::make_unique<net::WorkerServer>(nullptr, c));
    net::WorkerServer* server = out.servers.back().get();
    fleet.spawn([server](std::uint16_t port) {
      testing::serve_and_rejoin(port, server);
    });
  }

  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  net::SetupMsg setup;
  setup.method = "FedTrip";
  setup.algo = p;
  setup.config = cfg;
  setup.elastic = true;
  setup.heartbeat_interval_s = heartbeat_interval_s;
  fleet.handshake(setup, sim.param_dim());

  out.result = fleet.run(sim, ecfg);
  out.stats = fleet.host().stats();
  for (std::size_t w = 0; w < fleet.host().health().size(); ++w) {
    out.reasons.push_back(fleet.host().health().reason(w));
  }
  fleet.finish();
  return out;
}

std::string csv_of(const fl::RunResult& result, const char* tag) {
  // Per-process name: concurrent instances of this suite share TempDir().
  const std::string path = ::testing::TempDir() + "/elastic_chaos_" +
                           std::to_string(::getpid()) + "_" + tag + ".csv";
  fl::save_history_csv(path, result.history);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

void expect_bit_identical(const fl::RunResult& local,
                          const fl::RunResult& remote,
                          const std::string& label) {
  EXPECT_EQ(local.final_params, remote.final_params) << label;
  EXPECT_EQ(csv_of(local, "local"), csv_of(remote, "remote")) << label;
  EXPECT_EQ(local.comm_stats.bytes_down, remote.comm_stats.bytes_down)
      << label;
  EXPECT_EQ(local.comm_stats.bytes_up, remote.comm_stats.bytes_up) << label;
  EXPECT_EQ(local.comm_stats.messages_down, remote.comm_stats.messages_down)
      << label;
  EXPECT_EQ(local.comm_stats.messages_up, remote.comm_stats.messages_up)
      << label;
  EXPECT_EQ(local.comm_seconds, remote.comm_seconds) << label;
  EXPECT_EQ(local.participation, remote.participation) << label;
}

TEST(ElasticChaosTest, CleanFleetMatchesInProcessWithNoLifecycleEvents) {
  fl::ExperimentConfig cfg = chaos_config();
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);
  // A fast beacon (10ms) so even this fast clean run observes heartbeats.
  const auto run = run_elastic(cfg, {{}, {}, {}}, {}, 0.01);
  expect_bit_identical(local, run.result, "clean fleet");
  EXPECT_EQ(run.stats.evicted_workers, 0u);
  EXPECT_EQ(run.stats.replayed, 0u);
  EXPECT_EQ(run.stats.rejoined_workers, 0u);
  EXPECT_GT(run.stats.sub_batches, 0u);
  EXPECT_GT(run.stats.heartbeats, 0u);
}

TEST(ElasticChaosTest, KilledWorkerIsEvictedAndItsWorkReplayed) {
  fl::ExperimentConfig cfg = chaos_config();
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);

  net::ChaosConfig killer;
  killer.kill_after_dispatches = 3;
  const auto run = run_elastic(cfg, {killer, {}, {}});
  expect_bit_identical(local, run.result, "kill mid-run");
  EXPECT_EQ(run.stats.evicted_workers, 1u);
  // The kill drops the connection with a result pending — that in-flight
  // work must have been replayed on a survivor.
  EXPECT_GE(run.stats.replayed, 1u);
  EXPECT_GE(run.servers[0]->dispatches_executed(), 3u);
  std::size_t disconnected = 0;
  for (const auto r : run.reasons) {
    if (r == net::EvictReason::kDisconnected) ++disconnected;
  }
  EXPECT_EQ(disconnected, 1u);
}

TEST(ElasticChaosTest, SlowedWorkerShedsLoadThroughStealing) {
  fl::ExperimentConfig cfg = chaos_config();
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);

  net::ChaosConfig slow;
  slow.delay_dispatch_ms = 60.0;
  const auto run = run_elastic(cfg, {slow, {}, {}});
  expect_bit_identical(local, run.result, "slow worker");
  // The straggler holds one dispatch at a time; idle peers must have
  // raided its queue rather than waiting it out.
  EXPECT_GT(run.stats.stolen, 0u);
  EXPECT_EQ(run.stats.evicted_workers, 0u);
}

TEST(ElasticChaosTest, DroppedWorkerRejoinsAndServesAgain) {
  fl::ExperimentConfig cfg = chaos_config();
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);

  net::ChaosConfig dropper;
  dropper.drop_after_dispatches = 2;  // early: plenty of run left to rejoin
  const auto run = run_elastic(cfg, {dropper, {}, {}});
  expect_bit_identical(local, run.result, "drop + rejoin");
  EXPECT_EQ(run.stats.evicted_workers, 1u);
  EXPECT_GE(run.stats.rejoined_workers, 1u);
  // The dropped server redialed the rejoin door and was handed a second
  // session — and executed real work in it (the fault does not re-arm:
  // thresholds are cumulative across sessions).
  EXPECT_EQ(run.servers[0]->sessions_served(), 2u);
  EXPECT_GT(run.servers[0]->dispatches_executed(), 2u);
}

TEST(ElasticChaosTest, SilentWorkerIsDeadlineEvictedAndReplayed) {
  fl::ExperimentConfig cfg = chaos_config();
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);

  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  const std::uint64_t dim = sim.param_dim();

  std::vector<std::unique_ptr<net::WorkerServer>> servers;
  servers.push_back(std::make_unique<net::WorkerServer>());
  servers.push_back(std::make_unique<net::WorkerServer>());
  testing::LoopbackFleet fleet;
  for (const auto& server : servers) {
    net::WorkerServer* s = server.get();
    fleet.spawn(
        [s](std::uint16_t port) { testing::serve_and_rejoin(port, s); });
  }
  // A scripted zombie: handshakes like a real worker, then answers
  // nothing — no acks, no results, no heartbeats. Only the deadline
  // sweep can unstick the batch it is holding.
  fleet.spawn([dim](std::uint16_t port) {
    try {
      net::Socket conn = net::connect_to("127.0.0.1", port);
      net::Frame hello = net::recv_frame(conn, "coordinator");
      if (hello.type != wire::RecordType::kNetHello) return;
      net::send_frame(conn, wire::RecordType::kNetHello, 0,
                      net::serialize_hello(net::HelloMsg{}));
      net::Frame setup = net::recv_frame(conn, "coordinator");
      if (setup.type != wire::RecordType::kNetSetup) return;
      net::send_frame(conn, wire::RecordType::kNetSetupAck, 0,
                      net::serialize_setup_ack(net::SetupAckMsg{dim}));
      while (true) (void)net::recv_frame(conn, "coordinator");
    } catch (...) {
      // Evicted: the coordinator hung up on us. As planned.
    }
  });

  net::SetupMsg setup;
  setup.method = "FedTrip";
  setup.algo = p;
  setup.config = cfg;
  setup.elastic = true;
  setup.heartbeat_interval_s = 0.05;
  fleet.handshake(setup, dim);

  net::ElasticConfig ecfg;
  ecfg.worker_deadline_s = 0.6;  // >> the 50ms heartbeat interval
  auto remote = fleet.run(sim, ecfg);
  const net::ElasticStats stats = fleet.host().stats();
  std::size_t deadline_evictions = 0;
  for (std::size_t w = 0; w < fleet.host().health().size(); ++w) {
    if (fleet.host().health().reason(w) ==
        net::EvictReason::kDeadlineExpired) {
      ++deadline_evictions;
    }
  }
  fleet.finish();

  expect_bit_identical(local, remote, "silent worker");
  EXPECT_EQ(deadline_evictions, 1u);
  EXPECT_EQ(stats.evicted_workers, 1u);
  EXPECT_GE(stats.replayed, 1u);
}

TEST(ElasticChaosTest, KillPlusSlowBitIdenticalForAllFourPolicies) {
  // The headline acceptance claim: one worker killed mid-run, another
  // chaos-slowed, and the CSV is still bit-identical to the in-process
  // engine under every scheduling policy.
  // The killer holds slot 0 (clients {0, 3}), so its smallest share over
  // the four policies is deadline's 3 dispatches (see chaos_config()).
  // Sync and fastk give it at least 4: only queued jobs can be stolen and
  // an idle owner always ships its first job itself. Async gives it 5, one
  // per train() call, none stealable. Dying at its 3rd executed dispatch
  // is therefore a kill point that every policy reaches.
  net::ChaosConfig killer;
  killer.kill_after_dispatches = 3;
  net::ChaosConfig slow;
  slow.delay_dispatch_ms = 25.0;

  for (const std::string policy : {"sync", "fastk", "async", "deadline"}) {
    fl::ExperimentConfig cfg = chaos_config();
    cfg.sched.policy = policy;
    if (policy == "async") cfg.sched.buffer_size = 2;
    const auto local = run_in_process(cfg);
    const auto run = run_elastic(cfg, {killer, slow, {}});
    expect_bit_identical(local, run.result, policy + " under chaos");
    EXPECT_EQ(run.stats.evicted_workers, 1u) << policy;
    EXPECT_GE(run.stats.replayed, 1u) << policy;
    EXPECT_GE(run.servers[0]->dispatches_executed(),
              killer.kill_after_dispatches)
        << policy;
  }
}

}  // namespace
}  // namespace fedtrip
