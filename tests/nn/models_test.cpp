#include "nn/models.h"

#include <gtest/gtest.h>

#include <cstring>

#include "gradcheck_util.h"
#include "nn/parameter_vector.h"

namespace fedtrip::nn {
namespace {

ModelSpec mlp_spec() {
  ModelSpec s;
  s.arch = Arch::kMLP;
  return s;
}

ModelSpec cnn_spec(std::int64_t classes = 10) {
  ModelSpec s;
  s.arch = Arch::kCNN;
  s.classes = classes;
  return s;
}

ModelSpec alexnet_spec(double width_mult = 1.0) {
  ModelSpec s;
  s.arch = Arch::kAlexNet;
  s.channels = 3;
  s.height = 32;
  s.width = 32;
  s.width_mult = width_mult;
  return s;
}

TEST(ModelsTest, MlpOutputShape) {
  auto m = build_model(mlp_spec(), 1);
  Tensor x = testing::random_tensor(Shape{3, 1, 28, 28}, 2);
  Tensor y = m->forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{3, 10}));
}

TEST(ModelsTest, MlpParameterCountMatchesPaperArch) {
  // 784 -> 100 -> 10: (784*100 + 100) + (100*10 + 10) = 79,510.
  auto m = build_model(mlp_spec(), 1);
  EXPECT_EQ(parameter_count(*m), 784 * 100 + 100 + 100 * 10 + 10);
}

TEST(ModelsTest, CnnOutputShape28) {
  auto m = build_model(cnn_spec(), 1);
  Tensor x = testing::random_tensor(Shape{2, 1, 28, 28}, 3);
  Tensor y = m->forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
}

TEST(ModelsTest, CnnEmnist47Classes) {
  auto m = build_model(cnn_spec(47), 1);
  Tensor x = testing::random_tensor(Shape{1, 1, 28, 28}, 4);
  Tensor y = m->forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 47}));
}

TEST(ModelsTest, CnnHasThreeConvFiveByFive) {
  // LeNet5-derived: conv params are (out, in*5*5).
  auto m = build_model(cnn_spec(), 1);
  // Parameter tensors: conv1 W/b, conv2 W/b, conv3 W/b, fc1 W/b, fc2 W/b.
  EXPECT_EQ(m->parameters().size(), 10u);
  EXPECT_EQ(m->parameters()[0]->shape()[1], 1 * 5 * 5);
  EXPECT_EQ(m->parameters()[2]->shape()[1], 6 * 5 * 5);
  EXPECT_EQ(m->parameters()[4]->shape()[1], 16 * 5 * 5);
}

TEST(ModelsTest, AlexNetOutputShape) {
  auto m = build_model(alexnet_spec(0.25), 1);
  Tensor x = testing::random_tensor(Shape{1, 3, 32, 32}, 5);
  Tensor y = m->forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 10}));
}

TEST(ModelsTest, AlexNetFullWidthParamCountNearPaper) {
  // Paper Table III: AlexNet 2.72M params. Our compact CIFAR AlexNet lands
  // in the same ballpark (2-4M).
  auto m = build_model(alexnet_spec(1.0), 1);
  const auto params = parameter_count(*m);
  EXPECT_GT(params, 2'000'000);
  EXPECT_LT(params, 4'000'000);
}

TEST(ModelsTest, WidthMultShrinksModel) {
  auto full = build_model(alexnet_spec(1.0), 1);
  auto quarter = build_model(alexnet_spec(0.25), 1);
  EXPECT_LT(parameter_count(*quarter), parameter_count(*full) / 4);
}

TEST(ModelsTest, SameSeedReproducesWeights) {
  auto a = build_model(cnn_spec(), 42);
  auto b = build_model(cnn_spec(), 42);
  EXPECT_EQ(flatten_parameters(*a), flatten_parameters(*b));
}

TEST(ModelsTest, DifferentSeedsDiffer) {
  auto a = build_model(cnn_spec(), 1);
  auto b = build_model(cnn_spec(), 2);
  EXPECT_NE(flatten_parameters(*a), flatten_parameters(*b));
}

TEST(ModelsTest, FactoryProducesIdenticalModels) {
  auto factory = make_model_factory(mlp_spec(), 7);
  auto a = factory();
  auto b = factory();
  EXPECT_EQ(flatten_parameters(*a), flatten_parameters(*b));
}

TEST(ModelsTest, BackwardRunsThroughCnn) {
  auto m = build_model(cnn_spec(), 1);
  Tensor x = testing::random_tensor(Shape{2, 1, 28, 28}, 6);
  Tensor y = m->forward(x, true);
  m->zero_grad();
  Tensor gx = m->backward(testing::random_tensor(Shape{2, 10}, 7));
  EXPECT_EQ(gx.shape(), x.shape());
  // Some parameter gradient must be non-zero.
  double norm = 0.0;
  for (float v : flatten_gradients(*m)) norm += static_cast<double>(v) * v;
  EXPECT_GT(norm, 0.0);
}

// The training backward (backward_params: no input gradient for the first
// weighted layer, no call to the modules before it) must accumulate the
// same parameter gradients as backward(), bit for bit, over two batches.
TEST(ModelsTest, TrainingBackwardMatchesFullBackwardBitwise) {
  const struct {
    ModelSpec spec;
    Shape input;
  } cases[] = {{mlp_spec(), Shape{5, 1, 28, 28}},
               {cnn_spec(), Shape{5, 1, 28, 28}},
               {alexnet_spec(0.25), Shape{3, 3, 32, 32}}};
  for (const auto& c : cases) {
    auto full = build_model(c.spec, 3);
    auto train = build_model(c.spec, 3);
    full->zero_grad();
    train->zero_grad();
    for (std::uint64_t pass = 0; pass < 2; ++pass) {
      const Tensor x = testing::random_tensor(c.input, 20 + pass);
      const Tensor y = full->forward(x, true);
      train->forward(x, true);
      const Tensor g = testing::random_tensor(y.shape(), 30 + pass);
      full->backward(g);
      train->backward_params(g);
      const auto want = flatten_gradients(*full);
      const auto got = flatten_gradients(*train);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << arch_name(c.spec.arch) << " pass " << pass;
    }
  }
}

TEST(ModelsTest, MlpFlopsMatchTableIIIOrder) {
  // Paper: MLP 0.08 MFLOPs per sample forward. Ours: 2*(784*100 + 100*10)
  // ~ 0.159 MFLOPs counting multiply-adds as 2 FLOPs (the paper counts
  // MACs); same order of magnitude.
  auto m = build_model(mlp_spec(), 1);
  Tensor x = testing::random_tensor(Shape{1, 1, 28, 28}, 8);
  m->forward(x, false);
  const double mflops = m->forward_flops_per_sample() / 1e6;
  EXPECT_GT(mflops, 0.05);
  EXPECT_LT(mflops, 0.5);
}

TEST(ModelsTest, ArchNames) {
  EXPECT_STREQ(arch_name(Arch::kMLP), "MLP");
  EXPECT_STREQ(arch_name(Arch::kCNN), "CNN");
  EXPECT_STREQ(arch_name(Arch::kAlexNet), "AlexNet");
  EXPECT_EQ(arch_from_name("MLP"), Arch::kMLP);
  EXPECT_EQ(arch_from_name("cnn"), Arch::kCNN);
  EXPECT_EQ(arch_from_name("alexnet"), Arch::kAlexNet);
  EXPECT_THROW(arch_from_name("resnet"), std::invalid_argument);
}

TEST(ModelsTest, DropoutSpecAddsDropout) {
  ModelSpec s = alexnet_spec(0.25);
  s.dropout = 0.5f;
  auto m = build_model(s, 1);
  // Train-mode forward with dropout differs across calls; eval is stable.
  Tensor x = testing::random_tensor(Shape{1, 3, 32, 32}, 9);
  Tensor e1 = m->forward(x, false);
  Tensor e2 = m->forward(x, false);
  for (std::int64_t i = 0; i < e1.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_FLOAT_EQ(e1[idx], e2[idx]);
  }
}

}  // namespace
}  // namespace fedtrip::nn
