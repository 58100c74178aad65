// The acceptance gate of the distributed runner: a socket-backed run —
// training fanned out to worker processes' WorkerServer loops over real
// sockets, every dispatch and update crossing the wire — must be
// bit-identical to the in-process engine. Same full CSV (every column,
// clock included), same final parameters, same byte accounting; for all
// four scheduling policies, with compression + error feedback + delta +
// churn + a compute model enabled at once. The workers here run in
// threads over loopback TCP, each one a separate Simulation rebuilt from
// the wire-shipped config — exactly what a separate process does (the CI
// smoke covers the fork/exec path); nothing in-process is shared with the
// coordinator's engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "algorithms/registry.h"
#include "fl/checkpoint.h"
#include "fl/simulation.h"
#include "../fl/sim_util.h"
#include "../support/loopback_fleet.h"

namespace fedtrip {
namespace {

/// The everything-on configuration the equivalence claim is made for:
/// error-feedback top-k uplink with delta framing, qsgd downlink, a
/// straggler network, bimodal compute speeds, Markov churn.
fl::ExperimentConfig loaded_config() {
  fl::ExperimentConfig cfg = fl::testing::tiny_config();
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

fl::RunResult run_distributed(const fl::ExperimentConfig& cfg,
                              std::size_t num_workers) {
  testing::LoopbackFleet fleet;
  fleet.spawn_servers(num_workers);

  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  net::SetupMsg setup;
  setup.method = "FedTrip";
  setup.algo = p;
  setup.config = cfg;
  fleet.handshake(setup, sim.param_dim());
  auto result = fleet.run(sim);
  fleet.finish();
  return result;
}

std::string csv_of(const fl::RunResult& result, const char* tag) {
  const std::string path =
      ::testing::TempDir() + "/net_eq_" + tag + ".csv";
  fl::save_history_csv(path, result.history);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

void expect_bit_identical(const fl::ExperimentConfig& cfg,
                          const std::string& label) {
  const auto local = run_in_process(cfg);
  const auto remote = run_distributed(cfg, 2);
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

TEST(NetEquivalenceTest, SyncBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "sync";
  expect_bit_identical(cfg, "sync");
}

TEST(NetEquivalenceTest, FastKBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "fastk";
  expect_bit_identical(cfg, "fastk");
}

TEST(NetEquivalenceTest, AsyncBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "async";
  cfg.sched.buffer_size = 2;
  expect_bit_identical(cfg, "async");
}

TEST(NetEquivalenceTest, DeadlineBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "deadline";
  expect_bit_identical(cfg, "deadline");
}

TEST(NetEquivalenceTest, ByteExactModeComposesWithTheSocketHost) {
  // The byte-exact channel (PR 4) and the socket host are the two halves
  // of "everything crosses real buffers" — they must compose.
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "async";
  cfg.comm.byte_exact = true;
  expect_bit_identical(cfg, "async/byte-exact");
}

TEST(NetEquivalenceTest, WireCodecStaysBitIdentical) {
  // The Setup-negotiated wire codec compresses socket traffic with a
  // verify-and-fallback envelope — by construction it may shrink frames
  // but never change a float. Every policy-visible output must match the
  // in-process run exactly, with a sparsifying codec on the wire.
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "sync";
  cfg.net.wire_codec = "topk";
  expect_bit_identical(cfg, "sync/wire-codec=topk");
}

TEST(NetEquivalenceTest, LossyWireCodecStaysBitIdentical) {
  // qsgd reconstruction is almost never bit-exact, so the verify step
  // must keep every vector raw — the run still matches in-process.
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "deadline";
  cfg.net.wire_codec = "qsgd4";
  expect_bit_identical(cfg, "deadline/wire-codec=qsgd4");
}

TEST(NetEquivalenceTest, OneWorkerAndManyWorkersAgree) {
  // Sharding is a pure partition: 1-, 2- and 3-worker pools must all
  // produce the in-process result.
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "fastk";
  const auto local = run_in_process(cfg);
  for (std::size_t n : {1, 3}) {
    const auto remote = run_distributed(cfg, n);
    EXPECT_EQ(local.final_params, remote.final_params) << n << " workers";
  }
}

}  // namespace
}  // namespace fedtrip
