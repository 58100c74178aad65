#include "nn/sequential.h"

#include <gtest/gtest.h>

#include "gradcheck_util.h"
#include "nn/activations.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "tensor/rng.h"

namespace fedtrip::nn {
namespace {

std::unique_ptr<Sequential> small_mlp(std::uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_unique<Sequential>();
  model->add(std::make_unique<Linear>(4, 6, rng));
  model->add(std::make_unique<ReLU>());
  model->add(std::make_unique<Linear>(6, 3, rng));
  return model;
}

TEST(SequentialTest, ForwardComposes) {
  auto model = small_mlp(1);
  Tensor x = testing::random_tensor(Shape{2, 4}, 2);
  Tensor y = model->forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
}

TEST(SequentialTest, ParametersConcatenateInOrder) {
  auto model = small_mlp(1);
  auto params = model->parameters();
  // Linear(4,6): W + b, Linear(6,3): W + b
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->numel(), 24);
  EXPECT_EQ(params[1]->numel(), 6);
  EXPECT_EQ(params[2]->numel(), 18);
  EXPECT_EQ(params[3]->numel(), 3);
}

TEST(SequentialTest, GradCheckFullStack) {
  auto model = small_mlp(3);
  // Shift inputs away from ReLU kinks.
  Tensor x = testing::random_tensor(Shape{3, 4}, 4);
  testing::check_input_gradient(*model, x, 2e-2, 1e-2f);
  testing::check_parameter_gradients(*model, x, 2e-2, 1e-2f);
}

TEST(SequentialTest, FeatureBoundaryIsLastModule) {
  auto model = small_mlp(1);
  EXPECT_EQ(model->feature_boundary(), 2u);
}

TEST(SequentialTest, FeaturesPlusHeadEqualsForward) {
  auto model = small_mlp(5);
  Tensor x = testing::random_tensor(Shape{2, 4}, 6);
  Tensor full = model->forward(x, false);
  Tensor z = model->forward_features(x, false);
  EXPECT_EQ(z.shape(), (Shape{2, 6}));  // penultimate width
  Tensor head = model->forward_head(z, false);
  ASSERT_EQ(head.shape(), full.shape());
  for (std::int64_t i = 0; i < full.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_FLOAT_EQ(head[idx], full[idx]);
  }
}

TEST(SequentialTest, SplitBackwardMatchesFullBackward) {
  // backward_head + backward_from_features must produce the same parameter
  // gradients as a single backward().
  auto model_a = small_mlp(7);
  auto model_b = small_mlp(7);
  Tensor x = testing::random_tensor(Shape{2, 4}, 8);
  Tensor g = testing::random_tensor(Shape{2, 3}, 9);

  model_a->forward(x, true);
  model_a->zero_grad();
  model_a->backward(g);

  Tensor z = model_b->forward_features(x, true);
  model_b->forward_head(z, true);
  model_b->zero_grad();
  Tensor gz = model_b->backward_head(g);
  model_b->backward_from_features(gz);

  auto ga = model_a->gradients();
  auto gb = model_b->gradients();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t t = 0; t < ga.size(); ++t) {
    for (std::int64_t i = 0; i < ga[t]->numel(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      EXPECT_NEAR((*ga[t])[idx], (*gb[t])[idx], 1e-6) << t << ":" << i;
    }
  }
}

TEST(SequentialTest, FlopsSumOverModules) {
  auto model = small_mlp(1);
  Tensor x = testing::random_tensor(Shape{1, 4}, 2);
  model->forward(x, true);
  // Linear(4,6)=2*4*6+6, ReLU=6, Linear(6,3)=2*6*3+3
  EXPECT_DOUBLE_EQ(model->forward_flops_per_sample(),
                   (2.0 * 4 * 6 + 6) + 6 + (2.0 * 6 * 3 + 3));
}

// Counts the calls a training backward makes into a module in front of the
// first weighted layer.
class CallCounter : public Module {
 public:
  Tensor forward(const Tensor& input, bool) override { return input; }
  Tensor backward(const Tensor& grad_output) override {
    ++backward_calls;
    return grad_output;
  }
  std::string name() const override { return "CallCounter"; }
  int backward_calls = 0;
};

TEST(SequentialTest, TrainingBackwardStopsAtFirstWeightedModule) {
  Rng rng(12);
  Sequential model;
  model.add(std::make_unique<CallCounter>());
  model.add(std::make_unique<Linear>(4, 6, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<CallCounter>());
  model.add(std::make_unique<Linear>(6, 3, rng));
  auto& front = static_cast<CallCounter&>(model.module(0));
  auto& middle = static_cast<CallCounter&>(model.module(3));
  model.forward(testing::random_tensor(Shape{2, 4}, 13), true);
  const Tensor g = testing::random_tensor(Shape{2, 3}, 14);

  model.backward_params(g);
  EXPECT_EQ(front.backward_calls, 0);
  EXPECT_EQ(middle.backward_calls, 1);

  model.backward_from_features(model.backward_head(g));
  EXPECT_EQ(front.backward_calls, 0);
  EXPECT_EQ(middle.backward_calls, 2);

  model.backward(g);
  EXPECT_EQ(front.backward_calls, 1);
}

TEST(SequentialTest, WithFlattenHandles4D) {
  Rng rng(1);
  auto model = std::make_unique<Sequential>();
  model->add(std::make_unique<Flatten>());
  model->add(std::make_unique<Linear>(12, 2, rng));
  Tensor x = testing::random_tensor(Shape{3, 3, 2, 2}, 10);
  Tensor y = model->forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  // Backward restores the 4-D shape.
  Tensor g = testing::random_tensor(Shape{3, 2}, 11);
  Tensor gx = model->backward(g);
  EXPECT_EQ(gx.shape(), x.shape());
}

}  // namespace
}  // namespace fedtrip::nn
