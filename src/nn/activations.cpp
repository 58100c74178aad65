#include "nn/activations.h"

#include <cassert>
#include <cmath>

#include "tensor/ops.h"

namespace fedtrip::nn {

Tensor ReLU::forward(const Tensor& input, bool /*train*/) {
  Tensor out(input.shape());
  // Every element of the mask is rewritten, so a same-shape buffer is
  // reused as is.
  if (mask_.shape() != input.shape()) mask_ = Tensor(input.shape());
  const std::int64_t n = input.numel();
  ops::relu_forward(input.data(), out.data(), mask_.data(), n);
  last_per_sample_ = input.shape()[0] > 0 ? n / input.shape()[0] : 0;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  assert(grad_output.shape() == mask_.shape());
  Tensor grad(grad_output.shape());
  ops::relu_backward(grad_output.data(), mask_.data(), grad.data(),
                     grad.numel());
  return grad;
}

Tensor Tanh::forward(const Tensor& input, bool /*train*/) {
  Tensor out = input;
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out[idx] = std::tanh(out[idx]);
  }
  output_cache_ = out;
  last_per_sample_ = input.shape()[0] > 0 ? n / input.shape()[0] : 0;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  assert(grad_output.shape() == output_cache_.shape());
  Tensor grad = grad_output;
  const std::int64_t n = grad.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const float y = output_cache_[idx];
    grad[idx] *= (1.0f - y * y);
  }
  return grad;
}

}  // namespace fedtrip::nn
