// The benchmark's decorators must not change what they measure: on shrunk
// versions of every workload, runs through TimedHost (untraced and traced,
// the latter with TimedAlgorithm too) equal the plain engine's run bit for
// bit — final params, every history record and the channel accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

Workload shrunk(const std::string& name) {
  Workload w = make_workload(name, 7);
  w.config.rounds = name == "fleet-async" ? 20 : 3;
  return w;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

void expect_identical(const RunOutcome& plain, const RunOutcome& wrapped) {
  const auto& a = plain.result;
  const auto& b = wrapped.result;
  EXPECT_EQ(a.final_params, b.final_params);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const auto& x = a.history[i];
    const auto& y = b.history[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_TRUE(same_bits(x.test_accuracy, y.test_accuracy))
        << "round " << x.round;
    EXPECT_TRUE(same_bits(x.train_loss, y.train_loss)) << "round " << x.round;
    EXPECT_TRUE(same_bits(x.cum_gflops, y.cum_gflops)) << "round " << x.round;
    EXPECT_TRUE(same_bits(x.cum_mb_down, y.cum_mb_down)) << "round " << x.round;
    EXPECT_TRUE(same_bits(x.cum_mb_up, y.cum_mb_up)) << "round " << x.round;
    EXPECT_TRUE(same_bits(x.cum_comm_seconds, y.cum_comm_seconds))
        << "round " << x.round;
    EXPECT_TRUE(same_bits(x.mean_staleness, y.mean_staleness))
        << "round " << x.round;
    EXPECT_EQ(x.max_staleness, y.max_staleness);
    EXPECT_EQ(x.dropped, y.dropped);
    EXPECT_EQ(x.unavailable, y.unavailable);
  }
  EXPECT_EQ(a.comm_stats.bytes_down, b.comm_stats.bytes_down);
  EXPECT_EQ(a.comm_stats.bytes_up, b.comm_stats.bytes_up);
  EXPECT_EQ(a.comm_stats.messages_down, b.comm_stats.messages_down);
  EXPECT_EQ(a.comm_stats.messages_up, b.comm_stats.messages_up);
  EXPECT_TRUE(same_bits(a.comm_seconds, b.comm_seconds));
  EXPECT_EQ(a.participation, b.participation);
}

class Transparency : public ::testing::TestWithParam<std::string> {};

TEST_P(Transparency, DecoratedRunsEqualThePlainEngine) {
  const Workload w = shrunk(GetParam());
  RunOptions plain_opt;
  plain_opt.socket = w.sessions > 0;
  plain_opt.decorate = false;
  const RunOutcome plain = run_workload(w, plain_opt);
  ASSERT_FALSE(plain.result.history.empty());

  RunOptions timed_opt;
  timed_opt.socket = w.sessions > 0;
  const RunOutcome timed = run_workload(w, timed_opt);
  expect_identical(plain, timed);
  EXPECT_EQ(timed.round_s.size(), w.config.rounds);

  SpanRecorder rec;
  RunOptions traced_opt = timed_opt;
  traced_opt.rec = &rec;
  traced_opt.run_id = 1;
  const RunOutcome traced = run_workload(w, traced_opt);
  expect_identical(plain, traced);
  const auto spans = rec.spans();
  EXPECT_EQ(layer_time(spans, "host.aggregate").calls, w.config.rounds);
  EXPECT_EQ(layer_time(spans, "algo.aggregate").calls, w.config.rounds);
  EXPECT_EQ(layer_time(spans, "sched.run").calls, 1u);
  // Socket workloads train on the workers, outside this process's
  // algorithm decorator.
  EXPECT_EQ(durations(spans, "algo.train_client").size(),
            w.sessions > 0 ? 0u : traced.dispatches);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Transparency,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(LayerTime, SelfTimeSubtractsTheUnionOfOverlappingChildren) {
  // parent [0, 10]; children [1, 4] and [2, 6] overlap (union 5 s) and
  // [9, 12] sticks out past the parent (1 s inside it).
  std::vector<Span> spans(4);
  spans[0] = {"host.train", 0.0, 10.0, 0, 1, 0};
  spans[1] = {"algo.train_client", 1.0, 4.0, 1, 1, 1};
  spans[2] = {"algo.train_client", 2.0, 6.0, 1, 1, 2};
  spans[3] = {"algo.train_client", 9.0, 12.0, 1, 1, 3};
  const LayerTime t = layer_time(spans, "host.train");
  EXPECT_EQ(t.calls, 1u);
  EXPECT_DOUBLE_EQ(t.busy_s, 10.0);
  EXPECT_DOUBLE_EQ(t.self_s, 4.0);
  EXPECT_DOUBLE_EQ(layer_time(spans, "algo.train_client").busy_s, 10.0);
}

}  // namespace
}  // namespace perfbench
