// Simulation::evaluate scores the test set in parallel lanes on the
// training pool. Its result must be bitwise equal to the serial 128-batch
// loop it replaced, kept below verbatim as the executable spec, for any
// worker count, sample cap and parameters — NaN/Inf included, so argmax
// ties and NaN rows are exercised too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "algorithms/registry.h"
#include "data/synthetic.h"
#include "fl/simulation.h"
#include "nn/loss.h"
#include "nn/parameter_vector.h"
#include "sim_util.h"

namespace fedtrip::fl {
namespace {

// The serial evaluation loop as it stood before evaluate() went parallel.
double legacy_evaluate(nn::Sequential& model, const data::Dataset& test,
                       std::size_t eval_max_samples,
                       const std::vector<float>& params) {
  nn::load_parameters(model, params);
  const std::size_t total =
      eval_max_samples > 0 ? std::min(eval_max_samples, test.size())
                           : test.size();
  if (total == 0) return 0.0;

  constexpr std::size_t kEvalBatch = 128;
  double acc_sum = 0.0;
  std::size_t seen = 0;
  for (std::size_t start = 0; start < total; start += kEvalBatch) {
    const std::size_t end = std::min(total, start + kEvalBatch);
    std::vector<std::size_t> idx(end - start);
    for (std::size_t i = start; i < end; ++i) idx[i - start] = i;
    Tensor x = test.make_batch(idx);
    auto labels = test.make_batch_labels(idx);
    Tensor logits = model.forward(x, /*train=*/false);
    acc_sum += nn::accuracy(logits, labels) * static_cast<double>(idx.size());
    seen += idx.size();
  }
  return acc_sum / static_cast<double>(seen);
}

ExperimentConfig eval_config(nn::Arch arch, std::size_t workers,
                             std::size_t eval_max_samples) {
  ExperimentConfig cfg = testing::tiny_config();
  cfg.model.arch = arch;
  cfg.model.width_mult = 0.5;  // keeps the sanitizer build's run short
  cfg.workers = workers;
  cfg.eval_max_samples = eval_max_samples;
  return cfg;
}

// Generated once and copied into each Simulation.
const data::TrainTest& eval_data() {
  static const data::TrainTest data = [] {
    auto spec = data::spec_by_name("mnist", 0.02);
    spec.test_samples = 300;  // three 128-batches, the last one short
    return data::generate(spec, 123);
  }();
  return data;
}

Simulation make_sim(const ExperimentConfig& cfg) {
  return Simulation(cfg, algorithms::make_algorithm("FedAvg", {}),
                    eval_data());
}

std::vector<float> random_params(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> p(dim);
  for (auto& v : p) v = rng.uniform(-0.3f, 0.3f);
  return p;
}

// Random parameters with +Inf in the head layer's weight columns 0 and 1
// (rows 1, 2 of column 0; row 0 of column 1). The head reads ReLU
// outputs, so a sample whose hidden unit is active gets +Inf logits — a
// tie when two classes share one — and a sample where ReLU zeroed it gets
// 0 * Inf = NaN, in class 0 for column 1.
std::vector<float> special_params(nn::Sequential& model, std::uint64_t seed) {
  std::vector<float> p = random_params(nn::parameter_count(model), seed);
  const auto head = model.module(model.size() - 1).parameters();
  const std::int64_t in = head[0]->shape()[1];
  const std::size_t w0 = p.size() - static_cast<std::size_t>(
                                        head[0]->numel() + head[1]->numel());
  const float inf = std::numeric_limits<float>::infinity();
  p[w0 + static_cast<std::size_t>(1 * in + 0)] = inf;
  p[w0 + static_cast<std::size_t>(2 * in + 0)] = inf;
  p[w0 + static_cast<std::size_t>(0 * in + 1)] = inf;
  return p;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

class EvalParallelTest : public ::testing::TestWithParam<nn::Arch> {};

TEST_P(EvalParallelTest, BitwiseEqualToSerialLoop) {
  const nn::Arch arch = GetParam();
  const ExperimentConfig cfg = eval_config(arch, 1, 0);
  const data::Dataset& test = eval_data().test;
  auto spec_model = nn::make_model_factory(cfg.model, cfg.seed)();
  const auto plain = random_params(nn::parameter_count(*spec_model), 11);
  const auto special = special_params(*spec_model, 12);

  // The special set must really reach the tie and NaN rules, and leave
  // some rows NaN-free, or it proves nothing about them.
  nn::load_parameters(*spec_model, special);
  std::vector<std::size_t> all(test.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const Tensor logits =
      spec_model->forward(test.make_batch(all), /*train=*/false);
  const std::int64_t classes = logits.shape()[1];
  std::size_t nan_rows = 0, nan_lead_rows = 0, tie_rows = 0, clean_rows = 0;
  for (std::int64_t n = 0; n < logits.shape()[0]; ++n) {
    const float* row = logits.data() + n * classes;
    const std::int64_t best = nn::argmax_row(row, classes);
    bool nan = false, tie = false;
    for (std::int64_t c = 0; c < classes; ++c) {
      nan = nan || std::isnan(row[c]);
      tie = tie || (c != best && row[c] == row[best]);
    }
    nan_rows += nan;
    nan_lead_rows += std::isnan(row[0]);
    tie_rows += tie;
    clean_rows += !nan;
  }
  EXPECT_GT(nan_rows, 0u);
  EXPECT_GT(nan_lead_rows, 0u);
  EXPECT_GT(tie_rows, 0u);
  EXPECT_GT(clean_rows, 0u);

  for (const std::size_t max_samples : {0u, 1u, 31u, 127u, 128u, 129u, 250u}) {
    const double want_plain =
        legacy_evaluate(*spec_model, test, max_samples, plain);
    const double want_special =
        legacy_evaluate(*spec_model, test, max_samples, special);
    for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
      SCOPED_TRACE("eval_max_samples=" + std::to_string(max_samples) +
                   " workers=" + std::to_string(workers));
      Simulation sim = make_sim(eval_config(arch, workers, max_samples));
      const std::size_t samples = max_samples > 0 ? max_samples : 300;
      EXPECT_EQ(sim.eval_plan().samples, samples);
      EXPECT_EQ(sim.eval_plan().lanes,
                std::min(workers, (samples + 31) / 32));
      // Two calls on one Simulation: the second reuses the lane models.
      const double got_plain = sim.evaluate(plain);
      const double got_special = sim.evaluate(special);
      EXPECT_TRUE(bitwise_equal(got_plain, want_plain))
          << std::hexfloat << got_plain << " vs " << want_plain;
      EXPECT_TRUE(bitwise_equal(got_special, want_special))
          << std::hexfloat << got_special << " vs " << want_special;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, EvalParallelTest,
                         ::testing::Values(nn::Arch::kMLP, nn::Arch::kCNN),
                         [](const auto& info) {
                           return std::string(nn::arch_name(info.param));
                         });

}  // namespace
}  // namespace fedtrip::fl
