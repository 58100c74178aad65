// SpanRecorder: the traced run's in-memory span log.
//
// Every decorated call (bench-owned sched::Host and FederatedAlgorithm
// wrappers, decorators.h) records one span: name, wall start/end, parent
// span and run id. Spans stay in memory until the run ends; then they are
// written once as Chrome trace-event JSON and reduced to per-layer busy and
// self times. A span's self time is its duration minus the part of that
// interval its children cover (children may overlap — the parallel
// train_client calls under one Host::train — so coverage is an interval
// union, not a sum).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (an arbitrary but fixed epoch).
double steady_seconds();

struct Span {
  const char* name = "";  // string literal: "host.train", "algo.aggregate"…
  double t0 = 0.0;        // seconds since the recorder's epoch
  double t1 = 0.0;
  std::uint32_t parent = 0;  // span id + 1 of the parent; 0 = root
  std::uint32_t run = 0;     // spans of one simulation run share it
  std::uint32_t tid = 0;     // recording thread, for the trace viewer
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span and returns its id + 1 (0 is "no span").
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint32_t run);
  void close(std::uint32_t id);

  /// Span the calls of the current Host primitive nest under: set by the
  /// Host decorator on the scheduler thread, read by the algorithm
  /// decorator on pool threads.
  void set_context(std::uint32_t id) {
    context_.store(id, std::memory_order_relaxed);
  }
  std::uint32_t context() const {
    return context_.load(std::memory_order_relaxed);
  }

  std::vector<Span> spans() const;

  /// Writes every span as Chrome trace-event JSON (ph:X, microseconds).
  bool write_chrome_trace(const std::string& path) const;

 private:
  double now() const;  // seconds since epoch_

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::vector<std::thread::id> threads_;  // guarded by mu_; index = tid
  std::atomic<std::uint32_t> context_{0};
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint32_t parent,
             std::uint32_t run)
      : rec_(rec), id_(rec ? rec->open(name, parent, run) : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

/// Busy and self seconds of every span called `name` in `spans`: busy is
/// the summed duration, self is busy minus the union of each span's
/// children's intervals (clipped to the parent).
struct LayerTime {
  double busy_s = 0.0;
  double self_s = 0.0;
  std::size_t calls = 0;
};
LayerTime layer_time(const std::vector<Span>& spans, const char* name);

/// Durations of every span called `name`, in recording order.
std::vector<double> durations(const std::vector<Span>& spans,
                              const char* name);

}  // namespace perfbench
