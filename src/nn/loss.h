// SoftmaxCrossEntropy: fused softmax + NLL loss over integer labels.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace fedtrip::nn {

class SoftmaxCrossEntropy {
 public:
  /// Computes mean cross-entropy of `logits` (N x C) against `labels` (N).
  /// Caches softmax probabilities for backward().
  float forward(const Tensor& logits, const std::vector<std::int64_t>& labels);

  /// Returns dL/dlogits = (softmax - onehot) / N.
  Tensor backward() const;

  /// Softmax probabilities from the last forward (N x C).
  const Tensor& probabilities() const { return probs_; }

 private:
  Tensor probs_;
  std::vector<std::int64_t> labels_;
};

/// Predicted class of one logits row of `classes` entries. The first
/// maximum wins ties; every comparison with NaN is false, so a NaN never
/// displaces the running best and a row led by NaN (all-NaN included)
/// predicts class 0. accuracy() and Simulation::evaluate share this rule.
std::int64_t argmax_row(const float* row, std::int64_t classes);

/// Argmax classification accuracy of `logits` (N x C) against `labels`.
double accuracy(const Tensor& logits, const std::vector<std::int64_t>& labels);

}  // namespace fedtrip::nn
