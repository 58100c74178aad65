#include "obs/flight.h"

#include <unistd.h>

#include <csignal>
#include <cstdio>

#include "obs/json.h"
#include "obs/tracer.h"

namespace fedtrip::obs {

namespace {

// The process-global armed recorder (arm_process). One per process is the
// model — a worker or coordinator arms exactly once, for its lifetime.
std::mutex g_arm_mu;
FlightRecorder* g_armed = nullptr;
const Tracer* g_armed_tracer = nullptr;
std::string* g_armed_dir = nullptr;  // leaked on purpose: handlers outlive main

void signal_dump(int sig) {
  // stdio from a signal handler is not async-signal-safe; the process is
  // dying and the alternative is no black box at all.
  FlightRecorder::dump_armed("signal " + std::to_string(sig));
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      cap_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::note(std::string what) {
  Event e;
  e.t_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        epoch_)
              .count();
  e.what = std::move(what);
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < cap_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[static_cast<std::size_t>(seq_ % cap_)] = std::move(e);
  }
  ++seq_;
}

std::vector<FlightRecorder::Event> FlightRecorder::recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < cap_) return ring_;
  std::vector<Event> out;
  out.reserve(cap_);
  const std::size_t start = static_cast<std::size_t>(seq_ % cap_);
  for (std::size_t i = 0; i < cap_; ++i) {
    out.push_back(ring_[(start + i) % cap_]);
  }
  return out;
}

std::uint64_t FlightRecorder::total_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::string FlightRecorder::dump(
    const std::string& dir, const std::string& reason, const Tracer* tracer,
    const std::map<std::string, std::string>& extra) const noexcept {
  try {
    const long pid = static_cast<long>(::getpid());
    const std::string path = (dir.empty() ? std::string(".") : dir) +
                             "/flight-" + std::to_string(pid) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return "";
    {
      JsonWriter j(f);
      j.begin_object();
      j.begin_object("flight_recorder");
      j.field("pid", static_cast<std::size_t>(pid));
      j.field("wall_s",
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - epoch_)
                  .count());
      j.field_escaped("reason", reason);
      j.field_escaped("in_flight",
                      tracer != nullptr ? tracer->last_open_span()
                                        : std::string());
      j.field_escaped("counters", tracer != nullptr
                                      ? tracer->counters_brief()
                                      : std::string());
      for (const auto& [k, v] : extra) j.field_escaped(k.c_str(), v);
      j.field("events_total", static_cast<std::size_t>(total_events()));
      j.begin_array("events");
      for (const Event& e : recent()) {
        j.begin_object();
        j.field("t_s", e.t_s);
        j.field_escaped("what", e.what);
        j.end_object();
      }
      j.end_array();
      j.end_object();
      j.end_object();
    }
    std::fputc('\n', f);
    const bool write_err = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || write_err) return "";
    return path;
  } catch (...) {
    return "";
  }
}

void FlightRecorder::arm_process(FlightRecorder* rec, std::string dir,
                                 const Tracer* tracer) {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  g_armed = rec;
  g_armed_tracer = tracer;
  if (g_armed_dir == nullptr) g_armed_dir = new std::string();
  *g_armed_dir = std::move(dir);
  std::signal(SIGTERM, signal_dump);
  std::signal(SIGABRT, signal_dump);
  std::signal(SIGSEGV, signal_dump);
}

std::string FlightRecorder::dump_armed(const std::string& reason) {
  // Deliberately no lock: this runs on signal paths where the arm mutex
  // may already be held by the interrupted thread. Arming happens at
  // process start, not concurrently with dumps.
  if (g_armed == nullptr || g_armed_dir == nullptr) return "";
  return g_armed->dump(*g_armed_dir, reason, g_armed_tracer);
}

}  // namespace fedtrip::obs
