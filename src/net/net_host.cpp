#include "net/net_host.h"

#include <poll.h>

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "net/elastic/job_table.h"
#include "net/frame.h"
#include "obs/stream.h"
#include "obs/tracer.h"

namespace fedtrip::net {

NetHost::NetHost(fl::RoundHost& inner, WorkerPool& pool, ElasticConfig cfg)
    : inner_(inner),
      pool_(pool),
      cfg_(pool.elastic() ? cfg : ElasticConfig::fail_fast()),
      epoch_(std::chrono::steady_clock::now()) {
  if (cfg_.max_attempts == 0 || cfg_.chunk == 0) {
    throw NetError("ElasticConfig: max_attempts and chunk must be >= 1");
  }
  for (std::size_t i = 0; i < pool_.size(); ++i) health_.add_worker(now());
}

double NetHost::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::size_t NetHost::num_clients() const { return inner_.num_clients(); }
std::size_t NetHost::clients_per_round() const {
  return inner_.clients_per_round();
}
std::size_t NetHost::total_rounds() const { return inner_.total_rounds(); }
const comm::NetworkModel& NetHost::network() const {
  return inner_.network();
}
const clients::AvailabilityModel& NetHost::availability() const {
  return inner_.availability();
}
bool NetHost::compute_enabled() const { return inner_.compute_enabled(); }
double NetHost::compute_seconds(std::size_t client) const {
  return inner_.compute_seconds(client);
}
std::size_t NetHost::message_bytes(comm::Direction dir) const {
  return inner_.message_bytes(dir);
}
std::size_t NetHost::extra_down_bytes() const {
  return inner_.extra_down_bytes();
}
std::size_t NetHost::extra_up_bytes() const {
  return inner_.extra_up_bytes();
}
std::vector<std::size_t> NetHost::select(std::size_t count,
                                         const std::vector<bool>* busy) {
  return inner_.select(count, busy);
}
std::shared_ptr<const std::vector<float>> NetHost::broadcast(
    std::uint64_t key, std::size_t copies, bool alias_ok,
    std::size_t* wire_bytes) {
  return inner_.broadcast(key, copies, alias_ok, wire_bytes);
}
std::size_t NetHost::uplink(fl::ClientUpdate& update, std::uint64_t key,
                            const std::vector<float>& sent_from,
                            std::size_t round) {
  return inner_.uplink(update, key, sent_from, round);
}
void NetHost::aggregate(std::vector<fl::ClientUpdate>& updates,
                        const sched::RoundMeta& meta) {
  inner_.aggregate(updates, meta);
}
obs::Tracer* NetHost::tracer() const { return inner_.tracer(); }

std::vector<fl::ClientUpdate> NetHost::train(
    const std::vector<sched::Dispatch>& batch) {
  obs::Tracer* const tr = inner_.tracer();
  // Every sub-batch takes the next batch_seq; this call's are numbered
  // from the span's batch_seq upward.
  obs::WallSpan span(tr, "rpc_batch",
                     {{"batch_seq", static_cast<double>(batch_seq_ + 1)},
                      {"dispatches", static_cast<double>(batch.size())}});
  const std::size_t num_jobs = batch.size();
  if (tr) tr->count("net.elastic.jobs", num_jobs);

  JobTable jt(num_jobs, pool_.size());
  // One sub-batch in flight per worker; seq 0 means idle.
  struct Outstanding {
    std::uint64_t seq = 0;
    std::vector<std::size_t> jobs;
  };
  std::vector<Outstanding> out(pool_.size());
  std::vector<fl::ClientUpdate> updates(num_jobs);
  double pre_round_flops = 0.0;

  auto lost_fleet = [&]() {
    return NetError("every worker was lost mid-batch: " +
                    health_.evicted_brief() + " (last: " + last_failure_ +
                    ")");
  };

  // One placement rule for first tries and replays alike. Fail-fast
  // workers check client_id % num_workers ownership, which this is while
  // the whole fleet is active.
  auto place = [&](const std::vector<std::size_t>& jobs) {
    const std::vector<std::size_t> act = health_.active_slots();
    for (const std::size_t j : jobs) {
      if (jt.attempts(j) >= cfg_.max_attempts) {
        jt.evict_job(j);
        throw NetError(
            "dispatch for client " + std::to_string(batch[j].client_id) +
            " failed " + std::to_string(cfg_.max_attempts) +
            " attempts; giving up (" + health_.evicted_brief() +
            "; last: " + last_failure_ + ")");
      }
      if (act.empty()) throw lost_fleet();
      jt.enqueue(j, act[batch[j].client_id % act.size()]);
    }
  };

  // The failure policy's one branch: fail-fast ends the run with the
  // cause; elastic retires the worker and replays its unfinished jobs.
  auto evict = [&](std::size_t w, EvictReason reason,
                   const std::string& why) {
    if (!pool_.elastic()) throw NetError(why);
    last_failure_ = why;
    health_.evict(w, reason);
    pool_.disconnect(w);
    ++stats_.evicted_workers;
    if (tr) {
      tr->count("net.elastic.evicted");
      tr->count(std::string("net.elastic.evicted.") +
                evict_reason_name(reason));
    }
    out[w] = Outstanding{};
    const std::vector<std::size_t> orphans = jt.evict_worker(w);
    // Jobs popped for a sub-batch whose send failed are in flight too,
    // though never recorded in `out`: count what the table requeued.
    const auto replayed = static_cast<std::uint64_t>(
        std::count_if(orphans.begin(), orphans.end(), [&](std::size_t j) {
          return jt.state(j) == JobState::kRequeued;
        }));
    stats_.replayed += replayed;
    if (tr && replayed > 0) tr->count("net.elastic.replayed", replayed);
    place(orphans);
  };

  const WireCodec* const wc = pool_.wire_codec();
  auto ship = [&](std::size_t w) {
    Outstanding o;
    o.seq = ++batch_seq_;
    DispatchBatchMsg msg;
    msg.batch_seq = o.seq;
    // Snapshot vectors are deduplicated by pointer: a sync/fastk cohort
    // shares one broadcast, so it travels once per sub-batch, not once
    // per dispatch. A replay rebuilds the same bytes from the same inputs
    // (nothing on the coordinator changes them mid-batch), which is what
    // makes re-execution bit-identical by construction.
    std::unordered_map<const void*, std::uint32_t> set_index;
    while (o.jobs.size() < cfg_.chunk && !jt.queue(w).empty()) {
      const std::size_t j = jt.pop_dispatch(w);
      const sched::Dispatch& d = batch[j];
      auto [it, inserted] = set_index.try_emplace(
          d.params.get(), static_cast<std::uint32_t>(msg.param_sets.size()));
      if (inserted) msg.param_sets.push_back(*d.params);
      WireDispatch wd;
      wd.seq = d.seq;
      wd.client_id = d.client_id;
      wd.round = d.round;
      wd.train_key = d.train_key;
      wd.param_set = it->second;
      if (const fl::HistoryEntry* h = inner_.client_history(d.client_id)) {
        wd.has_history = true;
        wd.history_round = h->round;
        wd.history_params = h->params;
      }
      msg.dispatches.push_back(std::move(wd));
      o.jobs.push_back(j);
    }
    // Scatter-gather emission: metadata chunks + borrowed snapshot spans
    // go out in one gathered send (msg outlives it), and the wire codec
    // (Setup-negotiated) compresses each float vector when that is
    // lossless and smaller.
    SegmentWriter segs;
    WireStats ws;
    {
      obs::ScopedTimer t(tr, "wire.serialize");
      dispatch_batch_segments(msg, wc, &ws, segs);
    }
    try {
      send_frame_segments(pool_.worker(w), wire::RecordType::kNetDispatch,
                          wc->tag(), segs, tr);
    } catch (const NetError& e) {
      evict(w, EvictReason::kDisconnected,
            pool_.label(w) + " lost its dispatch batch: " + e.what());
      return;
    }
    ++traffic_.dispatch_frames;
    traffic_.down += ws;
    if (tr && wc->active()) {
      tr->count("net.wire.down.raw_bytes", ws.raw_bytes);
      tr->count("net.wire.down.wire_bytes", ws.wire_bytes);
    }
    out[w] = std::move(o);
    ++stats_.sub_batches;
    if (tr) tr->count("net.elastic.sub_batches");
  };

  auto handle_frame = [&](std::size_t w) {
    const std::string& label = pool_.label(w);
    Frame f;
    try {
      f = recv_frame(pool_.worker(w), label.c_str(), true, tr);
    } catch (const NetError& e) {
      evict(w, EvictReason::kDisconnected, e.what());
      return;
    }
    switch (f.type) {
      case wire::RecordType::kNetShutdown:
        // recv_frame synthesizes a shutdown on a clean close; mid-run a
        // close is a death however tidy it was.
        evict(w, EvictReason::kDisconnected,
              label + " closed the connection mid-round");
        return;
      case wire::RecordType::kNetHeartbeat:
        try {
          (void)parse_heartbeat(f.payload.data(), f.payload.size());
        } catch (const wire::WireError& e) {
          evict(w, EvictReason::kProtocolViolation,
                label + " sent a malformed heartbeat: " + e.what());
          return;
        }
        health_.heard_from(w, now());
        ++stats_.heartbeats;
        if (tr) tr->count("net.elastic.heartbeats");
        return;
      case wire::RecordType::kNetDispatchAck: {
        DispatchAckMsg ack;
        try {
          ack = parse_dispatch_ack(f.payload.data(), f.payload.size());
        } catch (const wire::WireError& e) {
          evict(w, EvictReason::kProtocolViolation,
                label + " sent a malformed dispatch ack: " + e.what());
          return;
        }
        if (ack.batch_seq != out[w].seq ||
            ack.dispatch_count != out[w].jobs.size()) {
          evict(w, EvictReason::kProtocolViolation,
                label + " acknowledged batch " +
                    std::to_string(ack.batch_seq) + " while batch " +
                    std::to_string(out[w].seq) +
                    " was outstanding (protocol desync)");
          return;
        }
        health_.heard_from(w, now());
        return;
      }
      case wire::RecordType::kNetResult: {
        TrainResultMsg result;
        WireStats ws;
        try {
          obs::ScopedTimer t(tr, "wire.deserialize");
          result =
              parse_train_result(f.payload.data(), f.payload.size(), wc, &ws);
        } catch (const wire::WireError& e) {
          // Everything a bad peer can cause surfaces as NetError with the
          // worker named (a malformed payload in a well-formed frame too).
          evict(w, EvictReason::kProtocolViolation,
                label + " returned a malformed train result: " + e.what());
          return;
        }
        traffic_.up += ws;
        if (tr && wc->active()) {
          tr->count("net.wire.up.raw_bytes", ws.raw_bytes);
          tr->count("net.wire.up.wire_bytes", ws.wire_bytes);
        }
        const Outstanding& o = out[w];
        if (o.seq == 0 || result.batch_seq != o.seq) {
          evict(w, EvictReason::kProtocolViolation,
                label + " answered batch " +
                    std::to_string(result.batch_seq) + " while batch " +
                    std::to_string(o.seq) +
                    " was outstanding (protocol desync)");
          return;
        }
        if (result.updates.size() != o.jobs.size()) {
          evict(w, EvictReason::kProtocolViolation,
                label + " returned " + std::to_string(result.updates.size()) +
                    " updates for " + std::to_string(o.jobs.size()) +
                    " dispatches");
          return;
        }
        // Validate the whole sub-batch before committing any of it: a bad
        // update evicts the worker and the entire sub-batch replays.
        for (std::size_t k = 0; k < result.updates.size(); ++k) {
          const WireUpdate& u = result.updates[k];
          const sched::Dispatch& d = batch[o.jobs[k]];
          if (u.client_id != d.client_id ||
              u.params.size() != d.params->size()) {
            evict(w, EvictReason::kProtocolViolation,
                  label + " returned an update for client " +
                      std::to_string(u.client_id) + " with " +
                      std::to_string(u.params.size()) +
                      " parameters at a slot dispatched to client " +
                      std::to_string(d.client_id) + " with " +
                      std::to_string(d.params->size()));
            return;
          }
        }
        pre_round_flops += result.pre_round_flops;
        for (std::size_t k = 0; k < result.updates.size(); ++k) {
          const std::size_t j = o.jobs[k];
          if (!jt.complete(j)) {
            // Replay idempotence: the job finished elsewhere first.
            ++stats_.duplicate_results;
            if (tr) tr->count("net.elastic.duplicate_results");
            continue;
          }
          updates[j] = to_client_update(std::move(result.updates[k]));
        }
        out[w] = Outstanding{};
        health_.heard_from(w, now());
        return;
      }
      case wire::RecordType::kNetError:
        // The worker shipped its own fatal diagnostic: it is done for;
        // its work is not.
        evict(w, EvictReason::kProtocolViolation,
              label + " failed mid-round: " +
                  parse_error(f.payload.data(), f.payload.size()));
        return;
      default:
        evict(w, EvictReason::kProtocolViolation,
              label + ": expected train result, got frame type " +
                  std::to_string(static_cast<std::uint32_t>(f.type)));
        return;
    }
  };

  std::vector<std::size_t> all(num_jobs);
  std::iota(all.begin(), all.end(), std::size_t{0});
  place(all);

  while (!jt.all_completed()) {
    // Idle workers ship their own queues first, so a thief below only
    // raids work whose owner is busy. Under fail-fast every queue ships
    // whole here and nothing is ever left to steal.
    for (const std::size_t w : health_.active_slots()) {
      if (out[w].seq == 0 && !jt.queue(w).empty()) ship(w);
    }
    for (const std::size_t w : health_.active_slots()) {
      if (out[w].seq != 0 || !jt.queue(w).empty()) continue;
      const std::vector<std::size_t> moved = jt.steal_into(w);
      if (moved.empty()) continue;
      stats_.stolen += moved.size();
      if (tr) tr->count("net.elastic.stolen", moved.size());
      ship(w);
    }

    // One poll round over the live sockets and the rejoin door (fd -1
    // for a fail-fast pool, which poll() ignores).
    const std::vector<std::size_t> owners = health_.active_slots();
    std::vector<pollfd> fds;
    for (const std::size_t w : owners) {
      fds.push_back(pollfd{pool_.worker(w).fd(), POLLIN, 0});
    }
    fds.push_back(pollfd{pool_.listener_fd(), POLLIN, 0});
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50) > 0) {
      for (std::size_t i = 0; i < owners.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        if (health_.active(owners[i])) handle_frame(owners[i]);
      }
      if ((fds.back().revents & POLLIN) != 0 &&
          pool_.try_admit(0) != WorkerPool::kNoSlot) {
        health_.add_worker(now());
        jt.add_worker();
        out.resize(pool_.size());
        ++stats_.rejoined_workers;
        if (tr) tr->count("net.elastic.rejoined");
      }
    }

    // Deadline sweep AFTER the drain above: a heartbeat that was sitting
    // in the socket buffer counts as life before silence is judged.
    for (const std::size_t w :
         health_.expired(now(), cfg_.worker_deadline_s)) {
      evict(w, EvictReason::kDeadlineExpired,
            pool_.label(w) + " was silent for over " +
                std::to_string(cfg_.worker_deadline_s) + " s");
    }
    if (health_.num_active() == 0) throw lost_fleet();
  }

  // Same accounting order as the in-process path: pre-round first, then
  // each update in batch order (pre-round is exactly 0.0 for every
  // remote-trainable method, so the arrival-order sum changes nothing).
  // Arrival order varied with the fleet; this order did not.
  inner_.add_flops(pre_round_flops);
  for (const auto& u : updates) inner_.add_flops(u.flops);

  if (metrics_ != nullptr && metrics_->due()) {
    span.end();  // the stats poll is not part of the batch RPC
    std::vector<obs::TraceLane> lanes;
    lanes.push_back(
        {"coordinator", tr != nullptr ? tr->snapshot() : obs::TraceData{}});
    for (const std::size_t w : health_.active_slots()) {
      try {
        lanes.push_back({pool_.label(w), pool_.stats_of(w)});
        health_.heard_from(w, now());
      } catch (const std::exception&) {
        // Lost lane, surviving run: the next batch finds the worker dead.
      }
    }
    const std::uint64_t round =
        batch.empty() ? 0 : static_cast<std::uint64_t>(batch.front().round);
    metrics_->emit(inner_.clock_seconds(), round, batch_seq_, lanes);
  }
  return updates;
}

}  // namespace fedtrip::net
