#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::uint32_t SpanRecorder::open(const char* name, std::uint32_t parent,
                                 std::uint32_t run) {
  const double t = now();
  const auto self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(threads_.begin(), threads_.end(), self);
  if (it == threads_.end()) it = threads_.insert(threads_.end(), self);
  Span s;
  s.name = name;
  s.t0 = t;
  s.t1 = t;
  s.parent = parent;
  s.run = run;
  s.tid = static_cast<std::uint32_t>(it - threads_.begin());
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanRecorder::close(std::uint32_t id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].t1 = t;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%u}}%s\n",
                 s.name, s.run, s.tid, s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                 i + 1, s.parent, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

LayerTime layer_time(const std::vector<Span>& spans, const char* name) {
  // Children of each span, as (t0, t1) intervals keyed by parent id.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size() +
                                                               1);
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.t0, s.t1);
  }
  LayerTime out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::strcmp(s.name, name) != 0) continue;
    const double dur = s.t1 - s.t0;
    auto& iv = children[i + 1];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur0 = 0.0, cur1 = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, s.t0);
      b = std::min(b, s.t1);
      if (b <= a) continue;
      if (open && a <= cur1) {
        cur1 = std::max(cur1, b);
      } else {
        if (open) covered += cur1 - cur0;
        cur0 = a;
        cur1 = b;
        open = true;
      }
    }
    if (open) covered += cur1 - cur0;
    out.busy_s += dur;
    out.self_s += dur - covered;
    ++out.calls;
  }
  return out;
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.t1 - s.t0);
  }
  return out;
}

}  // namespace perfbench
