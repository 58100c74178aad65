// Simulation: the FL engine around the paper's Algorithm 1.
//
// The Simulation owns models, clients, data, the comm channel and the
// history store, and exposes them to a sched::Scheduler as Host primitives
// (select / broadcast / train / uplink / aggregate). The configured policy
// (sync / fastk / async, see src/sched/) owns the outer loop: who trains
// when on the event-driven virtual clock fed by comm::NetworkModel. Client
// training uses pre-split RNG streams keyed per dispatch, so results are
// bit-identical for any worker count, and the default sync policy
// reproduces the classic wait-for-everyone loop (run_reference) bit for
// bit.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clients/availability.h"
#include "clients/compute.h"
#include "clients/virtual_shard.h"
#include "comm/channel.h"
#include "comm/network.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/algorithm.h"
#include "fl/client.h"
#include "fl/comm.h"
#include "fl/config.h"
#include "fl/history.h"
#include "fl/types.h"
#include "sched/scheduler.h"
#include "tensor/thread_pool.h"

namespace fedtrip::fl {

class RoundHost;

struct RunResult {
  std::vector<RoundRecord> history;
  /// Parameters of the final global model.
  std::vector<float> final_params;
  /// Per-client label histograms of the training partition (Fig 4 data).
  std::vector<std::vector<std::int64_t>> partition_histograms;
  double model_params = 0.0;          // |w|
  double model_forward_flops = 0.0;   // FP per sample
  double model_backward_flops = 0.0;  // BP per sample
  /// Final channel accounting (wire bytes per direction, message counts).
  comm::ChannelStats comm_stats;
  /// Virtual clock at the end of the run (0 without a network model).
  double comm_seconds = 0.0;
  /// "down:<codec>/up:<codec>" of the channel the run went through.
  std::string channel_name;
  /// Scheduling policy that orchestrated the rounds ("sync" by default).
  std::string sched_policy;
  /// Per-client count of aggregated updates over the run — the
  /// participation-fairness data (fastk starving the slow tail shows up
  /// here). Sparse: only participants occupy memory. Filled by run() unless
  /// config.track_participation is off; empty from run_reference().
  ParticipationMap participation;
};

/// One unit of the shard-executable train core: a scheduler dispatch plus
/// the history entry it trains against. The in-process host passes its own
/// store's entry; a distributed worker passes the entry shipped inside the
/// dispatch message (src/net/) — both paths run the identical
/// Simulation::train_shard code.
struct ShardWork {
  sched::Dispatch d;
  const HistoryEntry* history = nullptr;
};

class Simulation {
 public:
  /// Generates the configured synthetic dataset analogue.
  Simulation(const ExperimentConfig& config, AlgorithmPtr algorithm);

  /// Uses caller-provided data (e.g. real MNIST loaded via data::load_idx).
  /// config.dataset / data_scale are ignored for data generation but the
  /// per-client sample budget still follows the named spec when it matches.
  Simulation(const ExperimentConfig& config, AlgorithmPtr algorithm,
             data::TrainTest dataset);
  Simulation(Simulation&&) noexcept;
  Simulation& operator=(Simulation&&) noexcept;
  ~Simulation();

  /// Runs the configured number of rounds under the configured scheduling
  /// policy and returns the recorded history.
  RunResult run();

  /// Host wrapper hook: given the in-process RoundHost, returns the Host
  /// the scheduler should actually drive. The distributed runner
  /// (net::NetHost) wraps train() with a worker-pool fan-out and delegates
  /// everything else; the returned reference must stay valid for the run.
  using HostWrapper = std::function<sched::Host&(RoundHost&)>;

  /// run() with `wrap` interposed between the engine and the scheduler
  /// (nullptr = in-process, identical to run()).
  RunResult run_with_host(const HostWrapper& wrap);

  /// The shard-executable train core: algorithm pre-round phase over
  /// `work`, then parallel local training with per-dispatch RNG streams
  /// (FLOPs of the pre-round phase go to *pre_round_flops; per-update
  /// FLOPs ride each ClientUpdate). Pure function of (config seed, work):
  /// both the in-process host and a remote worker process produce
  /// bit-identical updates from equal inputs.
  std::vector<ClientUpdate> train_shard(const std::vector<ShardWork>& work,
                                        double* pre_round_flops);

  /// |w| of the configured model — what a remote worker cross-checks
  /// against the coordinator during the transport handshake.
  std::size_t param_dim() const { return global_params_.size(); }

  /// Attaches an observability sink (non-owning; the caller keeps it alive
  /// for the run) and propagates it to the channel. nullptr detaches.
  /// Tracing never perturbs RNG streams or accounting — a traced run is
  /// bit-identical to an untraced one.
  void set_tracer(obs::Tracer* tracer);
  obs::Tracer* tracer() const { return tracer_; }

  /// Streams each RoundRecord to `sink` the moment it is produced (the
  /// streaming-CSV path for long runs). With keep_in_result false,
  /// RunResult::history stays empty — O(1) record memory regardless of
  /// round count. Never changes what the records contain; run_reference()
  /// ignores the sink (it is the frozen legacy spec).
  using RoundSink = std::function<void(const RoundRecord&)>;
  void set_round_sink(RoundSink sink, bool keep_in_result = false) {
    round_sink_ = std::move(sink);
    sink_keeps_history_ = keep_in_result;
  }

  /// Training samples of one client — constant per run in the shard data
  /// modes (no materialized Client needed), the client's loader size in
  /// pool mode. Schedulers predict compute time from this before any shard
  /// exists.
  std::size_t client_num_samples(std::size_t client) const {
    return synth_ ? synth_->samples_per_client()
                  : clients_[client]->num_samples();
  }

  /// The pre-scheduler synchronous loop, preserved verbatim as the
  /// executable specification of the sync policy: a run() with the default
  /// SchedConfig must match it bit for bit (enforced by
  /// tests/integration/sched_equivalence_test.cpp). Ignores config.sched.
  RunResult run_reference();

  /// Evaluates parameters on the held-out test set (accuracy in [0, 1]).
  /// The samples are split into eval_plan().lanes contiguous ranges scored
  /// in parallel on the training pool, one model per lane; the result is
  /// bitwise equal to a serial pass over 128-sample batches, because in
  /// eval mode each sample's logits depend on that sample alone.
  double evaluate(const std::vector<float>& params);

  /// How evaluate() fans out: the test samples it scores (the first
  /// config.eval_max_samples, or all) and the lanes it splits them into.
  struct EvalPlan {
    std::size_t samples = 0;
    std::size_t lanes = 0;
  };
  EvalPlan eval_plan() const;

  /// Replaces the initial global model (e.g. loaded from a checkpoint via
  /// fl::load_parameters_file) before run()/run_reference() — the resume
  /// path. Throws std::invalid_argument on a size mismatch with the
  /// configured model.
  void set_initial_params(const std::vector<float>& params);

  const data::Dataset& train_data() const { return data_.train; }
  const data::Partition& partition() const { return partition_; }
  const comm::Channel& channel() const { return *channel_; }
  const comm::NetworkModel& network() const { return *network_; }
  const clients::ComputeModel& compute() const { return *compute_; }
  const clients::AvailabilityModel& availability() const {
    return *availability_;
  }

 private:
  friend class RoundHost;  // the sched::Host adapter (simulation.cpp)

  std::vector<ClientUpdate> run_round(std::size_t round,
                                      const std::vector<std::size_t>& selected,
                                      const std::vector<float>& round_params,
                                      double* pre_round_flops);
  /// Shared head of run()/run_reference(): partition stats, model FLOPs.
  void init_result(RunResult* result) const;

  /// train_shard for client_data == "virtual": materialize each chunk's
  /// clients from the synthesizer, train, release — O(chunk) peak client
  /// state, bit-identical to the materialized path.
  std::vector<ClientUpdate> train_shard_virtual(
      const std::vector<ShardWork>& work, double* pre_round_flops);

  /// A transient client for one virtual-mode dispatch: the shard dataset
  /// must outlive the Client (its DataLoader holds a reference), and both
  /// are dropped together when the chunk completes.
  struct TransientClient {
    std::unique_ptr<data::Dataset> shard;
    std::unique_ptr<Client> client;
  };
  TransientClient materialize_client(std::size_t client_id);

  ExperimentConfig config_;
  AlgorithmPtr algorithm_;
  data::TrainTest data_;
  data::Partition partition_;
  nn::ModelFactory model_factory_;
  std::vector<std::unique_ptr<Client>> clients_;
  /// Shard data modes: the per-client synthesizer (nullptr in pool mode),
  /// the materialized shards backing clients_ in "shard" mode, and the
  /// virtual-mode chunk size.
  std::unique_ptr<clients::ShardSynthesizer> synth_;
  std::vector<std::unique_ptr<data::Dataset>> shard_data_;
  bool virtual_mode_ = false;
  std::size_t virtual_chunk_ = 0;
  RoundSink round_sink_;
  bool sink_keeps_history_ = false;
  std::unique_ptr<nn::Sequential> eval_model_;
  /// Models of evaluate()'s lanes 1.. (lane 0 is eval_model_), built on
  /// first use and kept for later calls.
  std::vector<std::unique_ptr<nn::Sequential>> eval_lanes_;
  HistoryStore history_;
  std::vector<float> global_params_;
  std::unique_ptr<comm::Channel> channel_;
  std::unique_ptr<comm::NetworkModel> network_;
  std::unique_ptr<clients::ComputeModel> compute_;
  std::unique_ptr<clients::AvailabilityModel> availability_;
  Rng root_rng_;
  /// Dedicated pool when config.workers > 0; otherwise the global pool.
  std::unique_ptr<ThreadPool> own_pool_;
  /// Observability sink (non-owning, nullptr = tracing off).
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace fedtrip::fl
