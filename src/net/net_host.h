// NetHost: the socket-backed sched::Host.
//
// Wraps the in-process fl::RoundHost and overrides exactly one primitive:
// train() fans the dispatch batch out to the pool's workers, ships each
// dispatch with its broadcast snapshot and history entry, and reassembles
// the returned ClientUpdates into the original batch order — the
// deterministic, seq-ordered form the schedulers expect, bit-identical to
// in-process training because the workers run the same
// Simulation::train_shard from the same seed. Everything else — selection
// RNG, channel encode/decode and error-feedback state, history store,
// aggregation, the virtual clock — delegates to the wrapped RoundHost on
// the coordinator, which is why no policy code knows the difference (the
// documented remote contract of sched::Host; docs/TRANSPORT.md).
//
// train() is one worker-lifecycle event loop:
//
//   * every dispatch of the batch is a job in a JobTable (queued ->
//     in-flight -> completed, with requeue on eviction), first placed on
//     active[client_id % active.size()];
//   * idle workers are shipped sub-batches of up to ElasticConfig::chunk
//     jobs, and an idle worker with an empty queue *steals* the tail half
//     of the longest queue;
//   * worker liveness is heartbeat/deadline based (WorkerHealth): any
//     frame refreshes last_heard, silence past the deadline evicts;
//   * a dropped worker may *rejoin* through the pool's listener mid-loop.
//
// The pool's Setup `elastic` bit picks the failure policy. An elastic
// pool replays an evicted worker's jobs onto survivors — safe because a
// dispatch's result depends only on (config seed, dispatch keys,
// snapshot, history entry), never on which worker runs it. A non-elastic
// pool runs ElasticConfig::fail_fast(): one sub-batch per worker per
// train(), no deadline, no rejoin door, and the first eviction throws
// NetError with the worker's label and the cause — the run fails loudly
// instead of hanging or aggregating a partial round.
//
// Results are reassembled by job index into the original batch order and
// FLOPs are charged in that order (summed pre-round FLOPs first, then each
// update's), so the CSV, final parameters, byte accounting and
// participation log stay bit-identical to the in-process engine whatever
// the fleet does (tests/integration/net_equivalence_test.cpp and
// elastic_chaos_test.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fl/round_host.h"
#include "net/elastic/health.h"
#include "net/pool.h"
#include "sched/scheduler.h"

namespace fedtrip::obs {
class MetricsStreamer;
}  // namespace fedtrip::obs

namespace fedtrip::net {

struct ElasticConfig {
  // The heartbeat *interval* is not here: it is the workers' knob and
  // ships to them inside Setup (SetupMsg::heartbeat_interval_s) before the
  // pool exists. This struct holds the coordinator-side knobs only.
  /// Evict a worker silent for longer than this (wall seconds). Must
  /// comfortably exceed the Setup heartbeat interval.
  double worker_deadline_s = 10.0;
  /// Dispatch attempts (first try + replays) before the job — and the
  /// run — is failed. Guards against a poisoned dispatch killing every
  /// worker in turn.
  std::size_t max_attempts = 5;
  /// Dispatches per sub-batch shipped to a worker. 1 maximises stealing
  /// granularity (a straggler holds at most one dispatch hostage).
  std::size_t chunk = 1;

  /// The policy of a non-elastic pool: no deadline (its workers send no
  /// heartbeats), one attempt, and unlimited chunks, so each worker gets
  /// exactly one DispatchBatch per train() and nothing is left to steal.
  static constexpr ElasticConfig fail_fast() {
    return {std::numeric_limits<double>::infinity(), 1,
            std::numeric_limits<std::size_t>::max()};
  }
};

/// Lifecycle totals across the run (nondeterministic — they depend on
/// wall-clock timing — so they feed diagnostics and the net.elastic.*
/// counters, never the comparable sched.*/comm.* namespaces).
struct ElasticStats {
  std::uint64_t sub_batches = 0;        // dispatch messages shipped
  std::uint64_t replayed = 0;           // in-flight jobs requeued
  std::uint64_t stolen = 0;             // jobs moved by work-stealing
  std::uint64_t evicted_workers = 0;
  std::uint64_t rejoined_workers = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t duplicate_results = 0;  // replay-idempotence hits
};

class NetHost final : public sched::Host {
 public:
  /// `cfg` is the elastic policy; a non-elastic pool always runs
  /// ElasticConfig::fail_fast().
  NetHost(fl::RoundHost& inner, WorkerPool& pool, ElasticConfig cfg = {});

  std::size_t num_clients() const override;
  std::size_t clients_per_round() const override;
  std::size_t total_rounds() const override;
  const comm::NetworkModel& network() const override;
  const clients::AvailabilityModel& availability() const override;
  bool compute_enabled() const override;
  double compute_seconds(std::size_t client) const override;
  std::size_t message_bytes(comm::Direction dir) const override;
  std::size_t extra_down_bytes() const override;
  std::size_t extra_up_bytes() const override;
  std::vector<std::size_t> select(std::size_t count,
                                  const std::vector<bool>* busy) override;
  std::shared_ptr<const std::vector<float>> broadcast(
      std::uint64_t key, std::size_t copies, bool alias_ok,
      std::size_t* wire_bytes) override;
  std::size_t uplink(fl::ClientUpdate& update, std::uint64_t key,
                     const std::vector<float>& sent_from,
                     std::size_t round) override;
  void aggregate(std::vector<fl::ClientUpdate>& updates,
                 const sched::RoundMeta& meta) override;
  /// The coordinator's tracer (the wrapped RoundHost's Simulation owns
  /// the pointer) — policies see one sink whichever engine runs them.
  obs::Tracer* tracer() const override;

  /// The remote primitive: the event loop described in the file comment.
  std::vector<fl::ClientUpdate> train(
      const std::vector<sched::Dispatch>& batch) override;

  /// Per-direction socket traffic accounting accumulated across train()
  /// calls (the same numbers the net.wire.* counters report; exposed as a
  /// struct so benches can emit them without a Tracer).
  struct Traffic {
    std::uint64_t dispatch_frames = 0;
    WireStats down;  // coordinator -> worker (dispatch batches)
    WireStats up;    // worker -> coordinator (train results)
  };
  const Traffic& traffic() const { return traffic_; }
  const ElasticStats& stats() const { return stats_; }
  const WorkerHealth& health() const { return health_; }

  /// Attaches the in-flight metrics stream (non-owning; nullptr detaches).
  /// When the streamer is due, train() polls every live worker's stats
  /// with the shutdown-path kNetStatsReq machinery *between* batches — the
  /// workers are idle then — and appends one merged snapshot record. The
  /// poll is tolerant: a worker dying during it loses its lane for this
  /// record and is evicted by the next batch. Pure observer: dispatch
  /// bytes, RNG streams and update order are untouched
  /// (tests/integration/obs_equivalence_test.cpp).
  void set_metrics(obs::MetricsStreamer* metrics) { metrics_ = metrics; }

 private:
  /// Monotonic seconds since construction — the axis WorkerHealth runs on.
  double now() const;

  fl::RoundHost& inner_;
  WorkerPool& pool_;
  ElasticConfig cfg_;
  WorkerHealth health_;
  ElasticStats stats_;
  Traffic traffic_;
  std::string last_failure_;  // newest eviction's diagnostic
  std::uint64_t batch_seq_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  obs::MetricsStreamer* metrics_ = nullptr;
};

}  // namespace fedtrip::net
