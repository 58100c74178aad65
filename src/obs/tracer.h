// The tracing and metrics core. One Tracer instance is threaded (as a
// nullable pointer — never a global) through the scheduler, the round host,
// the channels and the transport; every instrumentation site is a single
// `if (tracer)` when observability is off, so the disabled path costs one
// predictable branch.
//
// Two clock domains, deliberately separate:
//   - kVirtual spans carry simulated-clock timestamps. They are emitted
//     complete (t0 and t1 both known) from the single scheduler thread, so
//     the virtual span stream is a *deterministic* function of the
//     configuration — bit-identical across runs, worker counts, and the
//     in-process vs socket engines (tests/integration/obs_equivalence).
//   - kWall spans carry monotonic wall-clock timestamps (RAII, WallSpan).
//     They measure real seconds and are inherently nondeterministic; tests
//     never compare them.
// The registry splits the same way: counters (u64) and gauges (f64) are
// deterministic and comparable; timers (accumulated nanoseconds) are not.
//
// Open wall spans are additionally tracked on a stack-like structure so a
// crash can report *what the process was doing* — see last_open_span(),
// which turns "worker died" into "worker died mid-train_shard(client=17)".
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/config.h"
#include "obs/histogram.h"

namespace fedtrip::obs {

class FlightRecorder;

enum class SpanClock : std::uint8_t { kWall = 0, kVirtual = 1 };

struct Span {
  std::string name;
  SpanClock clock = SpanClock::kWall;
  std::uint32_t track = 0;  // 0 = virtual lane; >= 1 = wall-clock thread
  double t0 = 0.0;          // seconds (virtual clock, or since tracer epoch)
  double t1 = 0.0;
  std::vector<std::pair<std::string, double>> args;

  bool operator==(const Span& o) const {
    return name == o.name && clock == o.clock && track == o.track &&
           t0 == o.t0 && t1 == o.t1 && args == o.args;
  }
};

/// Everything a Tracer accumulated, snapshot for export or for shipping
/// over the wire (StatsReport record — see obs/stats.h).
struct TraceData {
  std::map<std::string, std::uint64_t> counters;  // deterministic
  std::map<std::string, double> gauges;           // deterministic
  std::map<std::string, std::uint64_t> timers_ns; // wall time: not compared
  /// Distributions (obs/histogram.h). The name prefix carries the clock
  /// domain: `vspan.*` are deterministic (virtual clock); everything else
  /// is wall time or real traffic and never compared.
  std::map<std::string, Histogram> histograms;
  std::vector<Span> spans;
};

/// "round(round=3, clients=4)" — span label with integral args printed as
/// integers. Used for diagnostics and for span-stream equality tests.
std::string format_span(const Span& s);

class Tracer;

/// RAII wall-clock span. A default-constructed or null-tracer WallSpan is a
/// complete no-op. Movable so it can cross scope boundaries.
class WallSpan {
 public:
  using Arg = std::pair<const char*, double>;

  WallSpan() = default;
  WallSpan(Tracer* t, const char* name, std::initializer_list<Arg> args = {});
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;
  WallSpan(WallSpan&& o) noexcept { *this = std::move(o); }
  WallSpan& operator=(WallSpan&& o) noexcept {
    end();
    tracer_ = o.tracer_;
    token_ = o.token_;
    o.tracer_ = nullptr;
    return *this;
  }
  ~WallSpan() { end(); }

  /// Close early (idempotent).
  void end();

 private:
  Tracer* tracer_ = nullptr;
  std::uint64_t token_ = 0;
};

/// Convenience timer: accumulates elapsed nanoseconds into `<name>` of the
/// timer registry and bumps the deterministic counter `<name>.calls`.
class ScopedTimer {
 public:
  ScopedTimer() = default;
  ScopedTimer(Tracer* t, const char* name);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

class Tracer {
 public:
  /// `cfg.spans` / `cfg.counters` select what gets *recorded*; open-span
  /// tracking for crash diagnostics is always on once a Tracer exists
  /// (the worker keeps a diagnostics-only Tracer even without --obs).
  explicit Tracer(const ObsConfig& cfg = default_enabled());

  static ObsConfig default_enabled() {
    ObsConfig cfg;
    cfg.enabled = true;
    return cfg;
  }

  // -- deterministic registry ------------------------------------------
  void count(const std::string& name, std::uint64_t delta = 1);
  void gauge_add(const std::string& name, double delta);
  // -- nondeterministic (wall-time) registry ---------------------------
  /// Also feeds the `<name>_ns` histogram with the per-call duration, so
  /// accumulated timers grow a latency distribution for free.
  void timer_ns(const std::string& name, std::uint64_t ns);

  /// Records one sample into the named histogram. The caller picks the
  /// domain through the name prefix (see TraceData::histograms).
  void observe(const std::string& name, double value);

  /// Emit a completed virtual-clock span (scheduler thread only; emission
  /// order is part of the deterministic stream).
  void virtual_span(const char* name, double t0, double t1,
                    std::initializer_list<WallSpan::Arg> args = {});

  /// Seconds since this tracer's construction (monotonic).
  double wall_now() const;

  /// Label of the most recently opened, still-open wall span — e.g.
  /// "train_shard(client=17)". When nothing is open but an exception
  /// recently unwound the span stack, the deepest span that unwind tore
  /// down (RAII closes every span before a catch block runs, so this is
  /// how "worker died mid-X" survives to the error path). "" when idle.
  std::string last_open_span() const;

  /// "k1=v1 k2=v2 ..." over the deterministic counters, for error
  /// messages. Truncated with "..." past `max_len`.
  std::string counters_brief(std::size_t max_len = 512) const;

  TraceData snapshot() const;

  /// Flips span recording after construction. The worker keeps one
  /// diagnostics Tracer for its whole session and turns recording on only
  /// when the coordinator's Setup asks for spans back — open-span tracking
  /// (crash context) stays on either way.
  void set_spans(bool on) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_ = on;
  }

  /// Attaches a flight recorder (non-owning; nullptr detaches): every wall
  /// span open/close is noted into its ring so a post-mortem dump shows
  /// the recent event history, not just the deepest open span.
  void set_flight_recorder(FlightRecorder* fr) {
    std::lock_guard<std::mutex> lock(mu_);
    flight_ = fr;
  }

 private:
  friend class WallSpan;

  // WallSpan protocol: open returns a nonzero token; close records the
  // span (if spans are enabled) and drops the open-entry.
  std::uint64_t open_wall_span(const char* name,
                               std::initializer_list<WallSpan::Arg> args);
  void close_wall_span(std::uint64_t token);

  std::uint32_t track_of_current_thread_locked();

  struct OpenSpan {
    std::uint64_t token;
    Span span;  // t1 unset until close
  };

  mutable std::mutex mu_;
  bool spans_ = true;
  bool counters_ = true;
  std::chrono::steady_clock::time_point epoch_;
  TraceData data_;
  std::vector<OpenSpan> open_;  // open order; back() is most recent
  std::string crash_context_;  // deepest span torn down by an unwind
  FlightRecorder* flight_ = nullptr;  // non-owning post-mortem ring
  std::uint64_t next_token_ = 1;
  std::map<std::thread::id, std::uint32_t> tracks_;
  std::uint32_t next_track_ = 1;  // 0 is reserved for the virtual lane
};

}  // namespace fedtrip::obs
