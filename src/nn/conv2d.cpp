#include "nn/conv2d.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "tensor/ops.h"

namespace fedtrip::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Shape{out_channels, in_channels * kernel * kernel}),
      bias_(Shape{out_channels}),
      grad_weight_(Shape{out_channels, in_channels * kernel * kernel}),
      grad_bias_(Shape{out_channels}) {
  const std::int64_t fan_in = in_channels * kernel * kernel;
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  for (std::int64_t i = 0; i < weight_.numel(); ++i) {
    weight_[static_cast<std::size_t>(i)] = rng.uniform(-bound, bound);
  }
  bias_.zero();
}

namespace {
// Samples lowered side by side into one GEMM: enough to give it about this
// many columns (out_h*out_w per sample), capped at the batch. A 1x1-output
// layer otherwise runs its GEMM one column at a time; the paper CNN's convs
// get groups of 1, 3 and the whole batch. The value itself is not tuned:
// conv2 (out_hw 100) times the same at groups 1, 3, 6 and 15 within ~10%
// run-to-run noise, so it only has to be large enough for the 1x1-output
// layer. Grouping the whole batch always would grow the lowered buffers with
// no gain on the wide layers.
constexpr std::int64_t kGroupCols = 256;

std::int64_t group_size(std::int64_t out_hw, std::int64_t batch) {
  if (out_hw <= 0 || batch <= 1) return 1;
  return std::min(batch, (kGroupCols + out_hw - 1) / out_hw);
}
}  // namespace

// The group size changes no output bit: a group only adds GEMM columns,
// columns never mix, and each keeps its k-order sum.
Tensor Conv2d::forward(const Tensor& input, bool /*train*/) {
  assert(input.shape().rank() == 4 && input.shape()[1] == in_channels_);
  input_cache_ = input;
  const std::int64_t batch = input.shape()[0];
  const std::int64_t h = input.shape()[2];
  const std::int64_t w = input.shape()[3];
  const std::int64_t out_h = ops::conv_out_size(h, kernel_, stride_, pad_);
  const std::int64_t out_w = ops::conv_out_size(w, kernel_, stride_, pad_);
  last_h_ = h;
  last_w_ = w;
  last_out_h_ = out_h;
  last_out_w_ = out_w;

  const std::int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const std::int64_t out_hw = out_h * out_w;
  const std::int64_t group = group_size(out_hw, batch);
  Tensor out(Shape{batch, out_channels_, out_h, out_w});
  std::vector<float> cols(static_cast<std::size_t>(col_rows * group * out_hw));
  std::vector<float> res(
      static_cast<std::size_t>(out_channels_ * group * out_hw));
  const std::int64_t img_size = in_channels_ * h * w;
  const std::int64_t out_size = out_channels_ * out_hw;

  for (std::int64_t n0 = 0; n0 < batch; n0 += group) {
    const std::int64_t g = std::min(group, batch - n0);
    const std::int64_t ld = g * out_hw;
    for (std::int64_t s = 0; s < g; ++s) {
      ops::im2col(input.data() + (n0 + s) * img_size, in_channels_, h, w,
                  kernel_, kernel_, stride_, pad_, cols.data() + s * out_hw,
                  ld);
    }
    // res (out_c x g*out_hw) = W (out_c x col_rows) * cols
    ops::gemm(weight_.data(), cols.data(), res.data(), out_channels_, col_rows,
              ld);
    for (std::int64_t s = 0; s < g; ++s) {
      float* o = out.data() + (n0 + s) * out_size;
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        const float b = bias_[static_cast<std::size_t>(c)];
        const float* rc = res.data() + c * ld + s * out_hw;
        for (std::int64_t i = 0; i < out_hw; ++i) o[c * out_hw + i] = rc[i] + b;
      }
    }
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const std::int64_t batch = grad_output.shape()[0];
  assert(grad_output.shape()[1] == out_channels_);
  const std::int64_t out_h = grad_output.shape()[2];
  const std::int64_t out_w = grad_output.shape()[3];
  assert(out_h == last_out_h_ && out_w == last_out_w_);

  const std::int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const std::int64_t out_hw = out_h * out_w;
  const std::int64_t group = group_size(out_hw, batch);
  const std::int64_t img_size = in_channels_ * last_h_ * last_w_;
  const std::int64_t out_size = out_channels_ * out_hw;

  Tensor grad_input(Shape{batch, in_channels_, last_h_, last_w_});
  std::vector<float> cols(static_cast<std::size_t>(col_rows * out_hw));
  std::vector<float> go_group(
      static_cast<std::size_t>(out_channels_ * group * out_hw));
  std::vector<float> dcols(static_cast<std::size_t>(col_rows * group * out_hw));

  for (std::int64_t n0 = 0; n0 < batch; n0 += group) {
    const std::int64_t g = std::min(group, batch - n0);
    const std::int64_t ld = g * out_hw;
    for (std::int64_t s = 0; s < g; ++s) {
      const std::int64_t n = n0 + s;
      const float* go = grad_output.data() + n * out_size;
      // grad_bias += per-channel sums
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        float acc = 0.0f;
        for (std::int64_t i = 0; i < out_hw; ++i) acc += go[c * out_hw + i];
        grad_bias_[static_cast<std::size_t>(c)] += acc;
      }
      // grad_weight += grad_output[n] (out_c x out_hw) * cols^T, one sample
      // at a time: each weight accumulates ((gw + s0) + s1) + ..., an order
      // one GEMM over the group would change.
      ops::im2col(input_cache_.data() + n * img_size, in_channels_, last_h_,
                  last_w_, kernel_, kernel_, stride_, pad_, cols.data());
      ops::gemm_nt(go, cols.data(), grad_weight_.data(), out_channels_,
                   out_hw, col_rows, 1.0f, 1.0f);
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        std::copy(go + c * out_hw, go + (c + 1) * out_hw,
                  go_group.data() + c * ld + s * out_hw);
      }
    }
    // dcols (col_rows x g*out_hw) = W^T (col_rows x out_c) * grad_output,
    // gathered to the same [out_c, g*out_hw] layout.
    ops::gemm_tn(weight_.data(), go_group.data(), dcols.data(), col_rows,
                 out_channels_, ld);
    for (std::int64_t s = 0; s < g; ++s) {
      ops::col2im(dcols.data() + s * out_hw, in_channels_, last_h_, last_w_,
                  kernel_, kernel_, stride_, pad_,
                  grad_input.data() + (n0 + s) * img_size, ld);
    }
  }
  return grad_input;
}

double Conv2d::forward_flops_per_sample() const {
  // The output size depends on the input's spatial size, which is known
  // only after a forward; until then report 0.
  if (last_out_h_ == 0) return 0.0;
  const double macs = static_cast<double>(out_channels_) * in_channels_ *
                      kernel_ * kernel_ * last_out_h_ * last_out_w_;
  return 2.0 * macs + static_cast<double>(out_channels_) * last_out_h_ *
                          last_out_w_;
}

}  // namespace fedtrip::nn
