#include "net/worker.h"

#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/registry.h"
#include "data/idx_loader.h"
#include "fl/simulation.h"
#include "obs/flight.h"
#include "obs/stats.h"
#include "obs/tracer.h"

namespace fedtrip::net {

namespace {

/// The worker's session state once Setup arrived: the rebuilt world plus
/// the shard coordinates dispatches are validated against.
struct WorkerWorld {
  std::unique_ptr<fl::Simulation> sim;
  std::uint32_t worker_index = 0;
  std::uint32_t num_workers = 1;
  std::size_t num_clients = 0;
  bool elastic = false;
};

WorkerWorld build_world(const SetupMsg& setup) {
  auto algorithm = algorithms::make_algorithm(setup.method, setup.algo);
  if (!algorithm->remote_trainable()) {
    throw NetError("method " + setup.method +
                   " is not remote-trainable (mutable algorithm state on "
                   "the train path; see docs/TRANSPORT.md)");
  }
  WorkerWorld world;
  world.worker_index = setup.worker_index;
  world.num_workers = setup.num_workers;
  world.num_clients = setup.config.num_clients;
  world.elastic = setup.elastic;
  if (!setup.idx_dir.empty()) {
    auto real =
        data::try_load_mnist_dir(setup.idx_dir, setup.config.model.classes);
    if (!real.has_value()) {
      throw NetError("worker cannot load IDX data from " + setup.idx_dir +
                     " (the coordinator did — path must resolve on the "
                     "worker's filesystem)");
    }
    world.sim = std::make_unique<fl::Simulation>(
        setup.config, std::move(algorithm),
        data::TrainTest{std::move(real->train), std::move(real->test)});
  } else {
    world.sim =
        std::make_unique<fl::Simulation>(setup.config, std::move(algorithm));
  }
  return world;
}

TrainResultMsg execute_batch(WorkerWorld& world, DispatchBatchMsg&& batch) {
  const std::size_t dim = world.sim->param_dim();
  // Promote the snapshots to shared ownership once; every dispatch in the
  // batch references them by index.
  std::vector<std::shared_ptr<const std::vector<float>>> snapshots;
  snapshots.reserve(batch.param_sets.size());
  for (auto& p : batch.param_sets) {
    if (p.size() != dim) {
      throw NetError("dispatch snapshot has " + std::to_string(p.size()) +
                     " floats, model expects " + std::to_string(dim));
    }
    snapshots.push_back(
        std::make_shared<const std::vector<float>>(std::move(p)));
  }

  // History entries need stable addresses across the whole batch: size the
  // vector once, then point ShardWork at its slots.
  std::vector<fl::HistoryEntry> history(batch.dispatches.size());
  std::vector<fl::ShardWork> work;
  work.reserve(batch.dispatches.size());
  for (std::size_t i = 0; i < batch.dispatches.size(); ++i) {
    auto& d = batch.dispatches[i];
    if (d.client_id >= world.num_clients) {
      throw NetError("dispatch for client " + std::to_string(d.client_id) +
                     " of " + std::to_string(world.num_clients));
    }
    // Static sharding is a correctness check only in a fail-fast session; an
    // elastic coordinator moves dispatches between workers (replay, work-
    // stealing), so ownership is its scheduling choice, not ours to veto.
    if (!world.elastic &&
        d.client_id % world.num_workers != world.worker_index) {
      throw NetError("dispatch for client " + std::to_string(d.client_id) +
                     " does not belong to worker " +
                     std::to_string(world.worker_index) + " of " +
                     std::to_string(world.num_workers));
    }
    fl::ShardWork sw;
    sw.d.seq = static_cast<std::size_t>(d.seq);
    sw.d.client_id = static_cast<std::size_t>(d.client_id);
    sw.d.round = static_cast<std::size_t>(d.round);
    sw.d.train_key = d.train_key;
    sw.d.params = snapshots[d.param_set];
    if (d.has_history) {
      if (d.history_params.size() != dim) {
        throw NetError("history entry has " +
                       std::to_string(d.history_params.size()) +
                       " floats, model expects " + std::to_string(dim));
      }
      history[i] =
          fl::HistoryEntry{std::move(d.history_params),
                           static_cast<std::size_t>(d.history_round)};
      sw.history = &history[i];
    }
    work.push_back(std::move(sw));
  }

  TrainResultMsg result;
  result.batch_seq = batch.batch_seq;
  auto updates = world.sim->train_shard(work, &result.pre_round_flops);
  result.updates.reserve(updates.size());
  for (const auto& u : updates) result.updates.push_back(to_wire_update(u));
  return result;
}

/// The elastic heartbeat: a dedicated thread beating kNetHeartbeat every
/// `interval_s` until stopped. Shares `send_mu` with the serve loop so
/// beacons never interleave with a result frame mid-write. A send failure
/// ends the thread quietly — the serve loop is about to find out anyway.
class HeartbeatThread {
 public:
  HeartbeatThread(Socket& conn, std::mutex& send_mu, double interval_s,
                  const std::atomic<std::uint64_t>& dispatches,
                  const std::atomic<std::uint64_t>& current_batch)
      : conn_(conn),
        send_mu_(send_mu),
        interval_s_(interval_s),
        dispatches_(dispatches),
        current_batch_(current_batch) {
    thread_ = std::thread([this] { run(); });
  }

  ~HeartbeatThread() { stop(); }

  /// Idempotent; joins the thread. Call before closing the socket.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      cv_.wait_for(lk, std::chrono::duration<double>(interval_s_),
                   [this] { return stop_; });
      if (stop_) return;
      HeartbeatMsg m{dispatches_.load(), current_batch_.load()};
      lk.unlock();
      try {
        std::lock_guard<std::mutex> send_lock(send_mu_);
        send_frame(conn_, wire::RecordType::kNetHeartbeat, 0,
                   serialize_heartbeat(m));
      } catch (...) {
        return;
      }
      lk.lock();
    }
  }

  Socket& conn_;
  std::mutex& send_mu_;
  const double interval_s_;
  const std::atomic<std::uint64_t>& dispatches_;
  const std::atomic<std::uint64_t>& current_batch_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

void WorkerServer::logf(const char* fmt, ...) {
  if (log_ == nullptr) return;
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(log_, "fl_worker: ");
  std::vfprintf(log_, fmt, args);
  std::fprintf(log_, "\n");
  std::fflush(log_);
  va_end(args);
}

SessionEnd WorkerServer::serve(Socket conn) {
  ++sessions_;
  // Diagnostics tracer: alive for the whole session regardless of --obs,
  // so a crash can always report the open span and counter snapshot. Span
  // *recording* stays off until Setup asks for spans back (protocol v2).
  obs::ObsConfig diag_cfg;
  diag_cfg.enabled = true;
  diag_cfg.spans = false;
  obs::Tracer tracer(diag_cfg);
  if (flight_ != nullptr) tracer.set_flight_recorder(flight_);
  // Guards the socket's write side between the serve loop and the
  // heartbeat thread (elastic sessions; uncontended otherwise).
  std::mutex send_mu;
  std::atomic<std::uint64_t> current_batch{0};
  std::optional<HeartbeatThread> heartbeat;
  // "batch_seq=3 dispatches=2 clients=1,5" of the most recent dispatch —
  // what a flight dump reports the worker held when it died.
  std::string last_dispatch;
  try {
    // Handshake: the coordinator offers its version range, the worker
    // answers with the negotiated version (echoed as a degenerate range).
    Frame hello = recv_frame(conn, "coordinator");
    if (hello.type != wire::RecordType::kNetHello) {
      throw NetError("expected hello, got frame type " +
                     std::to_string(static_cast<std::uint32_t>(hello.type)));
    }
    const HelloMsg theirs =
        parse_hello(hello.payload.data(), hello.payload.size());
    const std::uint16_t version = negotiate_version(HelloMsg{}, theirs);
    send_frame(conn, wire::RecordType::kNetHello, 0,
               serialize_hello(HelloMsg{version, version}));

    Frame setup_frame = recv_frame(conn, "coordinator");
    if (setup_frame.type == wire::RecordType::kNetError) {
      throw NetError("coordinator aborted: " +
                     parse_error(setup_frame.payload.data(),
                                 setup_frame.payload.size()));
    }
    if (setup_frame.type != wire::RecordType::kNetSetup) {
      throw NetError(
          "expected setup, got frame type " +
          std::to_string(static_cast<std::uint32_t>(setup_frame.type)));
    }
    const SetupMsg setup =
        parse_setup(setup_frame.payload.data(), setup_frame.payload.size());
    logf("setup: method=%s clients=%zu shard %u/%u seed=%llu%s",
         setup.method.c_str(), setup.config.num_clients, setup.worker_index,
         setup.num_workers,
         static_cast<unsigned long long>(setup.config.seed),
         setup.elastic ? " (elastic)" : "");
    rejoin_host_ = setup.elastic ? conn.peer_host() : std::string();
    rejoin_port_ = setup.elastic ? setup.rejoin_port : 0;
    // The Setup-negotiated wire codec (protocol v5): decodes dispatch
    // envelopes, encodes result payloads. Built from the same config the
    // coordinator used, so both ends always agree.
    const WireCodec wire_codec(setup.config.net.wire_codec,
                               setup.config.comm.params, setup.config.seed);
    WorkerWorld world = build_world(setup);
    tracer.set_spans(setup.config.obs.enabled && setup.config.obs.spans);
    world.sim->set_tracer(&tracer);
    send_frame(conn, wire::RecordType::kNetSetupAck, 0,
               serialize_setup_ack(SetupAckMsg{world.sim->param_dim()}),
               &tracer);
    logf("world ready: |w| = %zu", world.sim->param_dim());
    if (setup.elastic) {
      heartbeat.emplace(conn, send_mu, setup.heartbeat_interval_s,
                        dispatches_total_, current_batch);
    }

    std::size_t batches = 0;
    while (true) {
      Frame f = recv_frame(conn, "coordinator", false, &tracer);
      switch (f.type) {
        case wire::RecordType::kNetDispatch: {
          auto batch = parse_dispatch_batch(f.payload.data(),
                                            f.payload.size(), &wire_codec);
          const std::size_t count = batch.dispatches.size();
          if (flight_ != nullptr) {
            last_dispatch = "batch_seq=" + std::to_string(batch.batch_seq) +
                            " dispatches=" + std::to_string(count) +
                            " clients=";
            for (std::size_t i = 0; i < count && i < 8; ++i) {
              if (i > 0) last_dispatch += ',';
              last_dispatch += std::to_string(batch.dispatches[i].client_id);
            }
            if (count > 8) last_dispatch += ",...";
            flight_->note("dispatch " + last_dispatch);
          }
          if (world.elastic) {
            // Receipt ack before training: lets the coordinator tell
            // "died holding the batch" from "never saw it".
            const DispatchAckMsg ack{
                batch.batch_seq, static_cast<std::uint32_t>(count)};
            std::lock_guard<std::mutex> lock(send_mu);
            send_frame(conn, wire::RecordType::kNetDispatchAck, 0,
                       serialize_dispatch_ack(ack), &tracer);
          }
          if (chaos_.delay_dispatch_ms > 0.0) {
            // The deterministic straggler: heartbeats keep flowing, so
            // the coordinator steals from us instead of evicting us.
            std::this_thread::sleep_for(std::chrono::duration<double>(
                chaos_.delay_dispatch_ms / 1000.0));
          }
          current_batch.store(batch.batch_seq);
          TrainResultMsg result;
          {
            obs::WallSpan span(
                &tracer, "execute_batch",
                {{"batch_seq", static_cast<double>(batch.batch_seq)},
                 {"dispatches", static_cast<double>(count)}});
            result = execute_batch(world, std::move(batch));
          }
          dispatches_total_ += count;
          current_batch.store(0);
          // Chaos injection point: after the work, before the result —
          // the worst case for the coordinator (executed, unacknowledged,
          // must replay).
          if (chaos_.kill_after_dispatches > 0 &&
              dispatches_total_ >= chaos_.kill_after_dispatches) {
            logf("chaos: crashing after %llu dispatches",
                 static_cast<unsigned long long>(dispatches_total_.load()));
            if (flight_ != nullptr) {
              const std::string path = flight_->dump(
                  flight_dir_,
                  "chaos kill after " +
                      std::to_string(dispatches_total_.load()) +
                      " dispatches",
                  &tracer, {{"last_dispatch", last_dispatch}});
              if (!path.empty()) logf("flight dump: %s", path.c_str());
            }
            if (heartbeat) heartbeat->stop();
            conn.close();
            return SessionEnd::kChaosKilled;
          }
          if (chaos_.drop_after_dispatches > 0 && !dropped_once_ &&
              dispatches_total_ >= chaos_.drop_after_dispatches) {
            dropped_once_ = true;
            if (flight_ != nullptr) {
              // Survivable fault: note it for a later dump, don't dump now.
              flight_->note("chaos drop after " +
                            std::to_string(dispatches_total_.load()) +
                            " dispatches");
            }
            logf("chaos: dropping the connection after %llu dispatches",
                 static_cast<unsigned long long>(dispatches_total_.load()));
            if (heartbeat) heartbeat->stop();
            conn.close();
            return SessionEnd::kChaosDropped;
          }
          {
            // Scatter-gather result emission: trained params are borrowed
            // straight out of `result`, which outlives the send.
            SegmentWriter segs;
            train_result_segments(result, &wire_codec, nullptr, segs);
            std::lock_guard<std::mutex> lock(send_mu);
            send_frame_segments(conn, wire::RecordType::kNetResult,
                                wire_codec.tag(), segs, &tracer);
          }
          ++batches;
          break;
        }
        case wire::RecordType::kNetStatsReq: {
          // Always answered — with an empty-ish report when tracing was
          // off — so the coordinator's collect loop never depends on the
          // worker's local view of the config.
          std::lock_guard<std::mutex> lock(send_mu);
          send_frame(conn, wire::RecordType::kNetStats, 0,
                     obs::serialize_stats(tracer.snapshot()), &tracer);
          break;
        }
        case wire::RecordType::kNetShutdown:
          logf("shutdown after %zu batches", batches);
          if (heartbeat) heartbeat->stop();
          return SessionEnd::kShutdown;
        case wire::RecordType::kNetError:
          throw NetError("coordinator aborted: " +
                         parse_error(f.payload.data(), f.payload.size()));
        default:
          throw NetError(
              "unexpected frame type " +
              std::to_string(static_cast<std::uint32_t>(f.type)) +
              " in the dispatch loop");
      }
    }
  } catch (const std::exception& e) {
    // Stop beating before touching the socket's write side from here.
    if (heartbeat) heartbeat->stop();
    // The diagnostic names what the worker was *doing* when it died — the
    // most recently opened wall span ("mid-train_shard(client=17)") and a
    // counter snapshot — on top of the failure cause.
    std::string diag = e.what();
    const std::string open = tracer.last_open_span();
    if (!open.empty()) diag += " | while in " + open;
    const std::string counters = tracer.counters_brief();
    if (!counters.empty()) diag += " | counters: " + counters;
    logf("fatal: %s", diag.c_str());
    if (flight_ != nullptr) {
      const std::string path = flight_->dump(
          flight_dir_, diag, &tracer, {{"last_dispatch", last_dispatch}});
      if (!path.empty()) logf("flight dump: %s", path.c_str());
    }
    // Best effort: ship the diagnostic to the coordinator before dying, so
    // the run fails with the cause instead of a bare disconnect.
    try {
      send_frame(conn, wire::RecordType::kNetError, 0,
                 serialize_error(diag));
    } catch (...) {
    }
    throw;
  }
}

}  // namespace fedtrip::net
