// Unit tests for the elastic coordinator's pure state machines: the
// JobTable dispatch lifecycle (every legal and illegal transition, the
// replay-idempotence rule, deterministic steal order) and the
// WorkerHealth heartbeat/deadline tracker (one-way eviction with typed
// reasons, deterministic time via explicit `now`). One NetHost case pins
// the replay count of a failed send over scripted socketpairs; the rest
// of the I/O half is covered by tests/integration/elastic_chaos_test.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "algorithms/registry.h"
#include "fl/simulation.h"
#include "net/elastic/chaos.h"
#include "net/elastic/health.h"
#include "net/elastic/job_table.h"
#include "net/error.h"
#include "net/frame.h"
#include "net/net_host.h"
#include "net/worker.h"
#include "../fl/sim_util.h"

namespace fedtrip::net {
namespace {

// ---------------------------------------------------------------- JobTable

TEST(JobTableTest, StartsAllQueuedUnassigned) {
  JobTable jt(3, 2);
  EXPECT_EQ(jt.num_jobs(), 3u);
  EXPECT_EQ(jt.num_workers(), 2u);
  EXPECT_EQ(jt.remaining(), 3u);
  EXPECT_FALSE(jt.all_completed());
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(jt.state(j), JobState::kQueued);
    EXPECT_EQ(jt.worker_of(j), JobTable::kNoWorker);
    EXPECT_EQ(jt.attempts(j), 0u);
  }
  EXPECT_TRUE(jt.queue(0).empty());
  EXPECT_TRUE(jt.queue(1).empty());
}

TEST(JobTableTest, HappyPathQueuedInFlightCompleted) {
  JobTable jt(2, 1);
  jt.enqueue(0, 0);
  jt.enqueue(1, 0);
  EXPECT_EQ(jt.queue(0), (std::deque<std::size_t>{0, 1}));
  EXPECT_EQ(jt.worker_of(0), 0u);

  EXPECT_EQ(jt.pop_dispatch(0), 0u);
  EXPECT_EQ(jt.state(0), JobState::kInFlight);
  EXPECT_EQ(jt.attempts(0), 1u);
  EXPECT_EQ(jt.queue(0), (std::deque<std::size_t>{1}));

  EXPECT_TRUE(jt.complete(0));
  EXPECT_EQ(jt.state(0), JobState::kCompleted);
  EXPECT_EQ(jt.remaining(), 1u);

  EXPECT_EQ(jt.pop_dispatch(0), 1u);
  EXPECT_TRUE(jt.complete(1));
  EXPECT_TRUE(jt.all_completed());
}

TEST(JobTableTest, DuplicateCompleteIsIgnoredNotDoubleCounted) {
  JobTable jt(1, 1);
  jt.enqueue(0, 0);
  jt.pop_dispatch(0);
  EXPECT_TRUE(jt.complete(0));
  // The replay-idempotence rule: a second result for the same job (a
  // replay that raced the original worker's late answer) records nothing.
  EXPECT_FALSE(jt.complete(0));
  EXPECT_EQ(jt.remaining(), 0u);
  EXPECT_EQ(jt.state(0), JobState::kCompleted);
}

TEST(JobTableTest, CompleteNeverInFlightThrows) {
  JobTable jt(2, 1);
  // Still queued & unassigned: a result for unshipped work is a protocol
  // violation, not idempotence.
  EXPECT_THROW(jt.complete(0), NetError);
  jt.enqueue(1, 0);
  EXPECT_THROW(jt.complete(1), NetError);  // queued, never popped
}

TEST(JobTableTest, EnqueueIllegalStatesThrow) {
  JobTable jt(3, 2);
  jt.enqueue(0, 0);
  jt.pop_dispatch(0);
  EXPECT_THROW(jt.enqueue(0, 1), NetError);  // in flight
  jt.complete(0);
  EXPECT_THROW(jt.enqueue(0, 1), NetError);  // completed
  jt.evict_job(1);
  EXPECT_THROW(jt.enqueue(1, 0), NetError);  // evicted
  EXPECT_THROW(jt.enqueue(5, 0), NetError);  // no such job
  EXPECT_THROW(jt.enqueue(2, 9), NetError);  // no such worker
}

TEST(JobTableTest, ReEnqueueMovesBetweenQueues) {
  JobTable jt(3, 2);
  jt.enqueue(0, 0);
  jt.enqueue(1, 0);
  jt.enqueue(2, 0);
  // Reassigning a queued job removes it from the old queue and appends to
  // the new one (the eviction-reassign path for still-queued jobs).
  jt.enqueue(1, 1);
  EXPECT_EQ(jt.queue(0), (std::deque<std::size_t>{0, 2}));
  EXPECT_EQ(jt.queue(1), (std::deque<std::size_t>{1}));
  EXPECT_EQ(jt.worker_of(1), 1u);
}

TEST(JobTableTest, PopFromEmptyQueueThrows) {
  JobTable jt(1, 1);
  EXPECT_THROW(jt.pop_dispatch(0), NetError);
  EXPECT_THROW(jt.pop_dispatch(7), NetError);  // no such worker
}

TEST(JobTableTest, EvictWorkerRequeuesInFlightKeepsQueuedQueued) {
  JobTable jt(4, 2);
  jt.enqueue(0, 0);
  jt.enqueue(1, 0);
  jt.enqueue(2, 0);
  jt.enqueue(3, 1);
  jt.pop_dispatch(0);  // job 0 in flight on worker 0
  const auto orphans = jt.evict_worker(0);
  // Ascending job order, in-flight and queued alike.
  EXPECT_EQ(orphans, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(jt.state(0), JobState::kRequeued);
  EXPECT_EQ(jt.state(1), JobState::kQueued);
  EXPECT_EQ(jt.state(2), JobState::kQueued);
  for (std::size_t j : orphans) {
    EXPECT_EQ(jt.worker_of(j), JobTable::kNoWorker);
  }
  EXPECT_TRUE(jt.queue(0).empty());
  // Worker 1's world is untouched.
  EXPECT_EQ(jt.queue(1), (std::deque<std::size_t>{3}));

  // Replay: a requeued job goes back to queued on a survivor, and its
  // attempt count keeps growing across the replay.
  jt.enqueue(0, 1);
  EXPECT_EQ(jt.state(0), JobState::kQueued);
  EXPECT_EQ(jt.queue(1), (std::deque<std::size_t>{3, 0}));
  jt.pop_dispatch(1);  // job 3
  EXPECT_EQ(jt.pop_dispatch(1), 0u);
  EXPECT_EQ(jt.attempts(0), 2u);
  EXPECT_TRUE(jt.complete(0));
}

TEST(JobTableTest, EvictWorkerSkipsCompletedJobs) {
  JobTable jt(2, 1);
  jt.enqueue(0, 0);
  jt.enqueue(1, 0);
  jt.pop_dispatch(0);
  jt.complete(0);
  jt.pop_dispatch(0);  // job 1 in flight
  const auto orphans = jt.evict_worker(0);
  EXPECT_EQ(orphans, (std::vector<std::size_t>{1}));
  EXPECT_EQ(jt.state(0), JobState::kCompleted);
}

TEST(JobTableTest, EvictJobIsTerminal) {
  JobTable jt(2, 1);
  jt.enqueue(0, 0);
  jt.evict_job(0);  // retry budget spent while queued
  EXPECT_EQ(jt.state(0), JobState::kEvicted);
  EXPECT_TRUE(jt.queue(0).empty());
  // Evicted jobs never complete, so the run can never drain.
  EXPECT_EQ(jt.remaining(), 2u);
  EXPECT_THROW(jt.evict_job(0), NetError);   // double eviction
  EXPECT_THROW(jt.complete(0), NetError);    // no resurrection
  EXPECT_THROW(jt.enqueue(0, 0), NetError);  // no reassignment
  jt.enqueue(1, 0);
  jt.pop_dispatch(0);
  jt.complete(1);
  EXPECT_THROW(jt.evict_job(1), NetError);  // completed is terminal too
}

TEST(JobTableTest, StealMovesTailHalfOfLongestQueueInOrder) {
  JobTable jt(6, 3);
  for (std::size_t j = 0; j < 5; ++j) jt.enqueue(j, 0);
  jt.enqueue(5, 2);
  const auto moved = jt.steal_into(1);
  // ceil(5/2) = 3 jobs from the tail, order preserved.
  EXPECT_EQ(moved, (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(jt.queue(0), (std::deque<std::size_t>{0, 1}));
  EXPECT_EQ(jt.queue(1), (std::deque<std::size_t>{2, 3, 4}));
  EXPECT_EQ(jt.worker_of(3), 1u);
  EXPECT_EQ(jt.queue(2), (std::deque<std::size_t>{5}));
}

TEST(JobTableTest, StealTieBreaksTowardLowestWorkerIndex) {
  JobTable jt(4, 3);
  jt.enqueue(0, 0);
  jt.enqueue(1, 0);
  jt.enqueue(2, 2);
  jt.enqueue(3, 2);
  // Queues 0 and 2 tie at length 2; the victim must be worker 0.
  const auto moved = jt.steal_into(1);
  EXPECT_EQ(moved, (std::vector<std::size_t>{1}));
  EXPECT_EQ(jt.queue(0), (std::deque<std::size_t>{0}));
  EXPECT_EQ(jt.queue(2), (std::deque<std::size_t>{2, 3}));
}

TEST(JobTableTest, StealReturnsEmptyWhenNothingToSteal) {
  JobTable jt(2, 2);
  EXPECT_TRUE(jt.steal_into(1).empty());  // all queues empty
  jt.enqueue(0, 1);
  jt.enqueue(1, 1);
  // The only non-empty queue is the thief's own.
  EXPECT_TRUE(jt.steal_into(1).empty());
  EXPECT_EQ(jt.queue(1), (std::deque<std::size_t>{0, 1}));
  EXPECT_THROW(jt.steal_into(9), NetError);  // no such worker
}

TEST(JobTableTest, StealFromSingleJobQueueMovesIt) {
  JobTable jt(1, 2);
  jt.enqueue(0, 0);
  // ceil(1/2) = 1: a lone queued job migrates entirely.
  EXPECT_EQ(jt.steal_into(1), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(jt.queue(0).empty());
  EXPECT_EQ(jt.worker_of(0), 1u);
}

TEST(JobTableTest, AddWorkerGrowsSlotSpace) {
  JobTable jt(2, 1);
  const std::size_t w = jt.add_worker();
  EXPECT_EQ(w, 1u);
  EXPECT_EQ(jt.num_workers(), 2u);
  EXPECT_TRUE(jt.queue(w).empty());
  jt.enqueue(0, w);
  EXPECT_EQ(jt.pop_dispatch(w), 0u);
}

TEST(JobTableTest, StateNamesAreStable) {
  EXPECT_STREQ(job_state_name(JobState::kQueued), "queued");
  EXPECT_STREQ(job_state_name(JobState::kInFlight), "in-flight");
  EXPECT_STREQ(job_state_name(JobState::kCompleted), "completed");
  EXPECT_STREQ(job_state_name(JobState::kRequeued), "requeued");
  EXPECT_STREQ(job_state_name(JobState::kEvicted), "evicted");
}

// ------------------------------------------------------------ WorkerHealth

TEST(WorkerHealthTest, AddHearEvictLifecycle) {
  WorkerHealth h;
  EXPECT_EQ(h.add_worker(1.0), 0u);
  EXPECT_EQ(h.add_worker(1.0), 1u);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.num_active(), 2u);
  EXPECT_TRUE(h.active(0));
  EXPECT_EQ(h.reason(0), EvictReason::kNone);
  EXPECT_DOUBLE_EQ(h.last_heard(0), 1.0);

  h.heard_from(0, 3.5);
  EXPECT_DOUBLE_EQ(h.last_heard(0), 3.5);

  h.evict(1, EvictReason::kDisconnected);
  EXPECT_FALSE(h.active(1));
  EXPECT_EQ(h.reason(1), EvictReason::kDisconnected);
  EXPECT_EQ(h.num_active(), 1u);
  EXPECT_EQ(h.active_slots(), (std::vector<std::size_t>{0}));
}

TEST(WorkerHealthTest, EvictionIsOneWay) {
  WorkerHealth h;
  h.add_worker(0.0);
  h.evict(0, EvictReason::kProtocolViolation);
  EXPECT_THROW(h.evict(0, EvictReason::kDisconnected), NetError);
  EXPECT_THROW(h.heard_from(0, 1.0), NetError);
  EXPECT_THROW(h.evict(0, EvictReason::kNone), NetError);
  EXPECT_THROW(h.evict(5, EvictReason::kRetired), NetError);  // no such slot
}

TEST(WorkerHealthTest, EvictingWithReasonNoneThrows) {
  WorkerHealth h;
  h.add_worker(0.0);
  // kNone means "still active" — it is not a legal eviction reason.
  EXPECT_THROW(h.evict(0, EvictReason::kNone), NetError);
  EXPECT_TRUE(h.active(0));
}

TEST(WorkerHealthTest, ExpiredReportsSilentActiveSlotsOnly) {
  WorkerHealth h;
  h.add_worker(0.0);  // slot 0
  h.add_worker(0.0);  // slot 1
  h.add_worker(0.0);  // slot 2
  h.heard_from(1, 9.0);
  h.evict(2, EvictReason::kDisconnected);  // evicted slots never expire

  // deadline 5s at t=10: slot 0 (silent 10s) is expired; slot 1 (silent
  // 1s) and evicted slot 2 are not.
  EXPECT_EQ(h.expired(10.0, 5.0), (std::vector<std::size_t>{0}));
  // At the exact deadline nothing has *exceeded* it yet.
  EXPECT_TRUE(h.expired(5.0, 5.0).empty());
  // Much later both survivors are silent past the deadline, slot order.
  EXPECT_EQ(h.expired(100.0, 5.0), (std::vector<std::size_t>{0, 1}));
}

TEST(WorkerHealthTest, EvictedBriefNamesReasons) {
  WorkerHealth h;
  h.add_worker(0.0);
  h.add_worker(0.0);
  h.add_worker(0.0);
  h.evict(1, EvictReason::kDeadlineExpired);
  h.evict(2, EvictReason::kDisconnected);
  const std::string brief = h.evicted_brief();
  EXPECT_NE(brief.find("worker slot 1: deadline-expired"),
            std::string::npos);
  EXPECT_NE(brief.find("worker slot 2: disconnected"), std::string::npos);
  EXPECT_EQ(brief.find("worker slot 0"), std::string::npos);
}

TEST(WorkerHealthTest, ReasonNamesAreStable) {
  EXPECT_STREQ(evict_reason_name(EvictReason::kNone), "active");
  EXPECT_STREQ(evict_reason_name(EvictReason::kDisconnected),
               "disconnected");
  EXPECT_STREQ(evict_reason_name(EvictReason::kProtocolViolation),
               "protocol-violation");
  EXPECT_STREQ(evict_reason_name(EvictReason::kDeadlineExpired),
               "deadline-expired");
  EXPECT_STREQ(evict_reason_name(EvictReason::kRetired), "retired");
}

// ----------------------------------------------------------------- NetHost

TEST(NetHostTest, FailedSendCountsItsPoppedJobsAsReplayed) {
  // Slot 0's peer hangs up right after setup, so the first sub-batch
  // shipped to it fails in the send — after its jobs were popped into
  // flight but before the host recorded them as outstanding. Both popped
  // jobs are replayed and must be counted; the third stayed queued.
  fl::ExperimentConfig cfg = fl::testing::tiny_config();
  cfg.clients_per_round = cfg.num_clients;  // clients 0, 2, 4 on slot 0
  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  const std::uint64_t dim = sim.param_dim();

  SocketPair dead = make_socket_pair();
  SocketPair live = make_socket_pair();
  std::thread script([&conn = dead.b, dim]() {
    (void)recv_frame(conn, "coordinator");  // hello
    send_frame(conn, wire::RecordType::kNetHello, 0,
               serialize_hello(HelloMsg{}));
    (void)recv_frame(conn, "coordinator");  // setup
    send_frame(conn, wire::RecordType::kNetSetupAck, 0,
               serialize_setup_ack(SetupAckMsg{dim}));
    conn.close();
  });
  std::thread server([&conn = live.b]() {
    try {
      WorkerServer().serve(std::move(conn));
    } catch (const std::exception&) {
    }
  });

  SetupMsg setup;
  setup.method = "FedTrip";
  setup.algo = p;
  setup.config = cfg;
  setup.elastic = true;
  setup.heartbeat_interval_s = 0.05;
  std::vector<Socket> conns;
  conns.push_back(std::move(dead.a));
  conns.push_back(std::move(live.a));
  WorkerPool pool = WorkerPool::handshake(std::move(conns), setup, dim);
  script.join();  // slot 0's peer is gone before the first dispatch

  ElasticConfig ecfg;
  ecfg.chunk = 2;
  std::optional<NetHost> host;
  const fl::RunResult remote =
      sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
        host.emplace(inner, pool, ecfg);
        return *host;
      });
  pool.shutdown();
  server.join();

  EXPECT_EQ(host->stats().evicted_workers, 1u);
  EXPECT_EQ(host->health().reason(0), EvictReason::kDisconnected);
  EXPECT_EQ(host->stats().replayed, 2u);
  fl::Simulation local(cfg, algorithms::make_algorithm("FedTrip", p));
  EXPECT_EQ(local.run().final_params, remote.final_params);
}

// ------------------------------------------------------------- ChaosConfig

TEST(ChaosConfigTest, AnyReflectsArmedFaults) {
  ChaosConfig c;
  EXPECT_FALSE(c.any());
  c.kill_after_dispatches = 3;
  EXPECT_TRUE(c.any());
  c = {};
  c.drop_after_dispatches = 1;
  EXPECT_TRUE(c.any());
  c = {};
  c.delay_dispatch_ms = 0.5;
  EXPECT_TRUE(c.any());
}

}  // namespace
}  // namespace fedtrip::net
