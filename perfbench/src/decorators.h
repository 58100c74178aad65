// Bench-owned decorators that time each layer from outside.
//
// TimedHost wraps whatever sched::Host the run uses (the in-process
// fl::RoundHost or net::NetHost) and TimedAlgorithm wraps the real
// FederatedAlgorithm. Both forward every virtual unchanged, so a wrapped
// run is bit-identical to an unwrapped one (tests/transparency_test.cpp).
// Untraced, TimedHost only stamps the wall clock when aggregate() returns —
// the round_s samples — and TimedAlgorithm is not installed at all. With a
// SpanRecorder attached every call records one span, so the traced run
// splits its wall time by layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fl/algorithm.h"
#include "sched/scheduler.h"
#include "spans.h"

namespace perfbench {

class TimedHost final : public fedtrip::sched::Host {
 public:
  /// `stamps` (optional) receives steady-clock seconds at every aggregate
  /// return; `rec` (optional) records one span per primitive call under
  /// `parent`.
  TimedHost(fedtrip::sched::Host& inner, std::vector<double>* stamps,
            SpanRecorder* rec, std::uint32_t parent, std::uint32_t run)
      : inner_(inner), stamps_(stamps), rec_(rec), parent_(parent),
        run_(run) {}

  std::size_t num_clients() const override { return inner_.num_clients(); }
  std::size_t clients_per_round() const override {
    return inner_.clients_per_round();
  }
  std::size_t total_rounds() const override { return inner_.total_rounds(); }
  const fedtrip::comm::NetworkModel& network() const override {
    return inner_.network();
  }
  const fedtrip::clients::AvailabilityModel& availability() const override {
    return inner_.availability();
  }
  bool compute_enabled() const override { return inner_.compute_enabled(); }
  double compute_seconds(std::size_t client) const override {
    return inner_.compute_seconds(client);
  }
  std::size_t message_bytes(fedtrip::comm::Direction dir) const override {
    return inner_.message_bytes(dir);
  }
  std::size_t extra_down_bytes() const override {
    return inner_.extra_down_bytes();
  }
  std::size_t extra_up_bytes() const override {
    return inner_.extra_up_bytes();
  }
  fedtrip::obs::Tracer* tracer() const override { return inner_.tracer(); }

  std::vector<std::size_t> select(std::size_t count,
                                  const std::vector<bool>* busy) override {
    Scope s(*this, "host.select");
    return inner_.select(count, busy);
  }
  std::shared_ptr<const std::vector<float>> broadcast(
      std::uint64_t key, std::size_t copies, bool alias_ok,
      std::size_t* wire_bytes) override {
    Scope s(*this, "host.broadcast");
    return inner_.broadcast(key, copies, alias_ok, wire_bytes);
  }
  std::vector<fedtrip::fl::ClientUpdate> train(
      const std::vector<fedtrip::sched::Dispatch>& batch) override {
    Scope s(*this, "host.train");
    auto updates = inner_.train(batch);
    dispatches_ += batch.size();
    for (const auto& u : updates) flops_ += u.flops;
    return updates;
  }
  std::size_t uplink(fedtrip::fl::ClientUpdate& update, std::uint64_t key,
                     const std::vector<float>& sent_from,
                     std::size_t round) override {
    Scope s(*this, "host.uplink");
    return inner_.uplink(update, key, sent_from, round);
  }
  void aggregate(std::vector<fedtrip::fl::ClientUpdate>& updates,
                 const fedtrip::sched::RoundMeta& meta) override {
    {
      Scope s(*this, "host.aggregate");
      updates_ += updates.size();
      inner_.aggregate(updates, meta);
    }
    if (stamps_ != nullptr) stamps_->push_back(perfbench::steady_seconds());
  }

  /// Dispatches trained, updates aggregated and local-training FLOPs
  /// reported by the trained updates, over the run.
  std::size_t dispatches() const { return dispatches_; }
  std::size_t updates() const { return updates_; }
  double flops() const { return flops_; }

 private:
  /// Opens a span for one primitive and makes it the context algorithm
  /// calls nest under; restores the run span on exit.
  class Scope {
   public:
    Scope(TimedHost& h, const char* name)
        : h_(h), span_(h.rec_, name, h.parent_, h.run_) {
      if (h_.rec_ != nullptr) h_.rec_->set_context(span_.id());
    }
    ~Scope() {
      if (h_.rec_ != nullptr) h_.rec_->set_context(h_.parent_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TimedHost& h_;
    ScopedSpan span_;
  };

  fedtrip::sched::Host& inner_;
  std::vector<double>* stamps_;
  SpanRecorder* rec_;
  std::uint32_t parent_;
  std::uint32_t run_;
  std::size_t dispatches_ = 0;
  std::size_t updates_ = 0;
  double flops_ = 0.0;
};

class TimedAlgorithm final : public fedtrip::fl::FederatedAlgorithm {
 public:
  /// Owns `inner`; records into `rec` (non-owning, must outlive the run)
  /// with spans tagged `run`.
  TimedAlgorithm(fedtrip::fl::AlgorithmPtr inner, SpanRecorder* rec,
                 std::uint32_t run)
      : inner_(std::move(inner)), rec_(rec), run_(run) {}

  std::string name() const override { return inner_->name(); }
  void initialize(std::size_t num_clients, std::size_t param_dim) override {
    inner_->initialize(num_clients, param_dim);
  }
  double pre_round(std::vector<fedtrip::fl::ClientContext>& contexts) override {
    ScopedSpan s(rec_, "algo.pre_round", context(), run_);
    return inner_->pre_round(contexts);
  }
  fedtrip::fl::ClientUpdate train_client(
      fedtrip::fl::ClientContext& ctx) override {
    ScopedSpan s(rec_, "algo.train_client", context(), run_);
    return inner_->train_client(ctx);
  }
  void aggregate(std::vector<float>& global,
                 const std::vector<fedtrip::fl::ClientUpdate>& updates,
                 std::size_t round) override {
    ScopedSpan s(rec_, "algo.aggregate", context(), run_);
    inner_->aggregate(global, updates, round);
  }
  fedtrip::optim::OptKind optimizer_kind() const override {
    return inner_->optimizer_kind();
  }
  std::size_t extra_downlink_floats(std::size_t param_dim) const override {
    return inner_->extra_downlink_floats(param_dim);
  }
  std::size_t extra_uplink_floats(std::size_t param_dim) const override {
    return inner_->extra_uplink_floats(param_dim);
  }
  bool uses_history() const override { return inner_->uses_history(); }
  bool remote_trainable() const override {
    return inner_->remote_trainable();
  }

 private:
  std::uint32_t context() const {
    return rec_ != nullptr ? rec_->context() : 0;
  }

  fedtrip::fl::AlgorithmPtr inner_;
  SpanRecorder* rec_;
  std::uint32_t run_;
};

}  // namespace perfbench
