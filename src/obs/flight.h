// Crash flight recorder: a bounded ring of recent events per process,
// dumped to `<dir>/flight-<pid>.json` when something dies — a fatal
// exception, a chaos kill, or a signal. The ring is fed by the Tracer's
// wall-span open/close stream (Tracer::set_flight_recorder) plus explicit
// notes at transport milestones ("dispatch batch_seq=3 clients=4,5"), so a
// post-mortem shows the last ~256 things the process did, not just the
// deepest open span. Recording never touches the deterministic registries
// — a run with the recorder armed is bit-identical to one without
// (tests/integration/obs_equivalence_test.cpp).
//
// Dumping is strictly best-effort: dump() never throws and returns "" on
// any failure, because it runs on paths that are already dying. The
// process-global arm (arm_process) additionally hooks SIGTERM / SIGABRT /
// SIGSEGV; the handler calls into stdio, which is not async-signal-safe —
// an accepted trade for a black box whose alternative is nothing
// (docs/OBSERVABILITY.md, "Flight recorder").
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fedtrip::obs {

class Tracer;

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  struct Event {
    double t_s = 0.0;  // seconds since the recorder was constructed
    std::string what;
  };

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Appends one event to the ring (thread-safe; oldest entry evicted
  /// once the ring is full).
  void note(std::string what);

  /// The ring's contents, oldest first.
  std::vector<Event> recent() const;
  /// Events ever noted (ring evictions included).
  std::uint64_t total_events() const;

  /// Writes `<dir>/flight-<pid>.json` and returns its path ("" on any
  /// failure — the caller is already on an error path). `tracer` (may be
  /// null) contributes the in-flight span label and the counter summary;
  /// `extra` adds caller string fields (e.g. "last_dispatch") verbatim.
  std::string dump(const std::string& dir, const std::string& reason,
                   const Tracer* tracer,
                   const std::map<std::string, std::string>& extra = {})
      const noexcept;

  /// Arms a process-global recorder so signal handlers (SIGTERM, SIGABRT,
  /// SIGSEGV) and far-away catch blocks can dump without plumbing. The
  /// recorder/tracer must outlive the armed window.
  static void arm_process(FlightRecorder* rec, std::string dir,
                          const Tracer* tracer);
  /// Dumps the armed recorder ("" when none armed).
  static std::string dump_armed(const std::string& reason);

 private:
  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::size_t cap_;
  std::uint64_t seq_ = 0;       // total notes; ring slot = seq_ % cap_
  std::vector<Event> ring_;     // grows to cap_, then wraps
};

}  // namespace fedtrip::obs
