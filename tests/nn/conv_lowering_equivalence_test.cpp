// Bit-identity of the sample-grouped conv lowering and the packed-B^T
// gemm_nt against verbatim copies of the code they replaced: per-sample
// im2col + GEMM in Conv2d::forward/backward and the dot-product gemm_nt.
// Inputs carry ReLU zeros, -0, denormals and (in the "special" mix) sparse
// +-Inf and NaN, so a zero skip, a reassociated sum or a reordered
// accumulation shows up as a changed bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace fedtrip::nn {
namespace {

// ------------------------------------------------ the reference kernels

namespace ref {

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha = 1.0f,
             float beta = 0.0f) {
  // B is stored (n x k); C(m x n) = alpha A B^T + beta C. Dot-product form.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * c_row[j]);
    }
  }
}

void im2col(const float* img, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* cols) {
  const std::int64_t out_h = ops::conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = ops::conv_out_size(width, kw, stride, pad);
  const std::int64_t out_hw = out_h * out_w;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        float* col_row = cols + ((c * kh + ki) * kw + kj) * out_hw;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride - pad + ki;
          if (ih < 0 || ih >= height) {
            std::memset(col_row + oh * out_w, 0,
                        static_cast<std::size_t>(out_w) * sizeof(float));
            continue;
          }
          const float* img_row = img + (c * height + ih) * width;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride - pad + kj;
            col_row[oh * out_w + ow] =
                (iw >= 0 && iw < width) ? img_row[iw] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* cols, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* img) {
  const std::int64_t out_h = ops::conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = ops::conv_out_size(width, kw, stride, pad);
  const std::int64_t out_hw = out_h * out_w;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const float* col_row = cols + ((c * kh + ki) * kw + kj) * out_hw;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride - pad + ki;
          if (ih < 0 || ih >= height) continue;
          float* img_row = img + (c * height + ih) * width;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride - pad + kj;
            if (iw >= 0 && iw < width) img_row[iw] += col_row[oh * out_w + ow];
          }
        }
      }
    }
  }
}

// Conv2d's per-sample forward/backward, state held in plain members.
struct Conv {
  Conv(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
       std::int64_t stride, std::int64_t pad, const Tensor& weight,
       const Tensor& bias)
      : in_channels_(in_c),
        out_channels_(out_c),
        kernel_(kernel),
        stride_(stride),
        pad_(pad),
        weight_(weight),
        bias_(bias),
        grad_weight_(weight.shape()),
        grad_bias_(bias.shape()) {}

  std::int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
  Tensor weight_, bias_, grad_weight_, grad_bias_, input_cache_;
  std::int64_t last_h_ = 0, last_w_ = 0, last_out_h_ = 0, last_out_w_ = 0;

  Tensor forward(const Tensor& input) {
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
    const std::int64_t col_cols = out_h * out_w;
    Tensor out(Shape{batch, out_channels_, out_h, out_w});
    std::vector<float> cols(static_cast<std::size_t>(col_rows * col_cols));
    const std::int64_t img_size = in_channels_ * h * w;
    const std::int64_t out_size = out_channels_ * col_cols;

    for (std::int64_t n = 0; n < batch; ++n) {
      im2col(input.data() + n * img_size, in_channels_, h, w, kernel_,
             kernel_, stride_, pad_, cols.data());
      ops::gemm(weight_.data(), cols.data(), out.data() + n * out_size,
                out_channels_, col_rows, col_cols);
      float* o = out.data() + n * out_size;
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        const float b = bias_[static_cast<std::size_t>(c)];
        for (std::int64_t i = 0; i < col_cols; ++i) o[c * col_cols + i] += b;
      }
    }
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    const std::int64_t batch = grad_output.shape()[0];
    const std::int64_t out_h = grad_output.shape()[2];
    const std::int64_t out_w = grad_output.shape()[3];

    const std::int64_t col_rows = in_channels_ * kernel_ * kernel_;
    const std::int64_t col_cols = out_h * out_w;
    const std::int64_t img_size = in_channels_ * last_h_ * last_w_;
    const std::int64_t out_size = out_channels_ * col_cols;

    Tensor grad_input(Shape{batch, in_channels_, last_h_, last_w_});
    std::vector<float> cols(static_cast<std::size_t>(col_rows * col_cols));
    std::vector<float> dcols(static_cast<std::size_t>(col_rows * col_cols));

    for (std::int64_t n = 0; n < batch; ++n) {
      const float* go = grad_output.data() + n * out_size;
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        float acc = 0.0f;
        for (std::int64_t i = 0; i < col_cols; ++i) {
          acc += go[c * col_cols + i];
        }
        grad_bias_[static_cast<std::size_t>(c)] += acc;
      }
      im2col(input_cache_.data() + n * img_size, in_channels_, last_h_,
             last_w_, kernel_, kernel_, stride_, pad_, cols.data());
      gemm_nt(go, cols.data(), grad_weight_.data(), out_channels_, col_cols,
              col_rows, 1.0f, 1.0f);
      ops::gemm_tn(weight_.data(), go, dcols.data(), col_rows, out_channels_,
                   col_cols);
      col2im(dcols.data(), in_channels_, last_h_, last_w_, kernel_, kernel_,
             stride_, pad_, grad_input.data() + n * img_size);
    }
    return grad_input;
  }
};

Tensor linear_forward(const Tensor& weight, const Tensor& bias,
                      const Tensor& input) {
  const std::int64_t batch = input.shape()[0];
  const std::int64_t in = input.shape()[1];
  const std::int64_t out_features = weight.shape()[0];
  Tensor out(Shape{batch, out_features});
  gemm_nt(input.data(), weight.data(), out.data(), batch, in, out_features);
  for (std::int64_t n = 0; n < batch; ++n) {
    float* row = out.data() + n * out_features;
    for (std::int64_t j = 0; j < out_features; ++j) row[j] += bias[j];
  }
  return out;
}

}  // namespace ref

// ------------------------------------------------------- inputs, compare

enum class Mix { kClean, kSpecial };

// Normal values with ReLU zeros, -0 and denormals; kSpecial adds sparse
// +-Inf and NaN on top.
float draw(Rng& rng, Mix mix) {
  const double u = rng.uniform();
  if (u < 0.25) return 0.0f;
  if (u < 0.30) return -0.0f;
  if (u < 0.35) {
    const float tiny = std::numeric_limits<float>::denorm_min();
    return (u < 0.325 ? 1.0f : -1.0f) * tiny *
           static_cast<float>(1 + rng.next_u64() % 1000);
  }
  if (mix == Mix::kSpecial) {
    if (u < 0.36) return std::numeric_limits<float>::infinity();
    if (u < 0.37) return -std::numeric_limits<float>::infinity();
    if (u < 0.38) return std::numeric_limits<float>::quiet_NaN();
  }
  return rng.uniform(-2.0f, 2.0f);
}

void fill(Tensor& t, Rng& rng, Mix mix) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[static_cast<std::size_t>(i)] = draw(rng, mix);
  }
}

// Any NaN matches any NaN; every other value must match bit for bit. The
// NaN rule is needed because x86 SSE returns the first NaN operand of an
// add or multiply, and the compiler may swap the operands of a commutative
// op (a vectorised loop and its scalar tail can differ), so the sign and
// payload of a NaN are not a property of the algorithm. Where NaN appears
// is: a kernel that drops or adds a 0 * Inf term moves it.
bool same_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

void expect_bitwise(const float* got, const float* want, std::int64_t count,
                    const std::string& what) {
  std::int64_t bad = 0, first = -1;
  for (std::int64_t i = 0; i < count; ++i) {
    if (!same_bits(got[i], want[i])) {
      if (first < 0) first = i;
      ++bad;
    }
  }
  if (bad > 0) {
    ADD_FAILURE() << what << ": " << bad << " of " << count
                  << " elements differ, first at " << first << " (got "
                  << got[first] << ", want " << want[first] << ")";
  }
}

void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  expect_bitwise(got.data(), want.data(), got.numel(), what);
}

// ------------------------------------------------------------- conv grid

struct ConvCase {
  const char* name;
  std::int64_t in_c, out_c, kernel, stride, pad, h, w;
};

// The paper CNN's three convs (outputs 28x28, 10x10 and 1x1 per sample),
// then stride 2 with padding, a 1x1 kernel and odd, non-square sizes.
const ConvCase kConvCases[] = {
    {"paper_conv1", 1, 6, 5, 1, 2, 28, 28},
    {"paper_conv2", 6, 16, 5, 1, 0, 14, 14},
    {"paper_conv3", 16, 120, 5, 1, 0, 5, 5},
    {"stride2_pad1", 3, 8, 3, 2, 1, 9, 9},
    {"kernel1", 4, 5, 1, 1, 0, 6, 6},
    {"odd_sizes", 3, 7, 3, 1, 1, 7, 5},
    {"odd_stride3", 2, 3, 2, 3, 0, 11, 13},
};
const std::int64_t kBatches[] = {1, 2, 15, 32, 33};

void check_conv(const ConvCase& cc, std::int64_t batch, Mix mix) {
  std::ostringstream tag;
  tag << cc.name << " batch " << batch
      << (mix == Mix::kClean ? " clean" : " special");
  Rng rng(1000 + 17 * batch + static_cast<std::uint64_t>(mix) +
          static_cast<std::uint64_t>(cc.h * 31 + cc.out_c));
  Conv2d conv(cc.in_c, cc.out_c, cc.kernel, cc.stride, cc.pad, rng);
  Tensor& weight = *conv.parameters()[0];
  Tensor& bias = *conv.parameters()[1];
  fill(weight, rng, mix);
  fill(bias, rng, Mix::kClean);

  ref::Conv want(cc.in_c, cc.out_c, cc.kernel, cc.stride, cc.pad, weight,
                 bias);

  Tensor x(Shape{batch, cc.in_c, cc.h, cc.w});
  fill(x, rng, mix);
  const Tensor y = conv.forward(x, true);
  expect_bitwise(y, want.forward(x), tag.str() + " forward");

  // Two backward calls so grad_weight's beta = 1 accumulate and grad_bias's
  // += start from non-zero values the second time.
  conv.zero_grad();
  for (int pass = 0; pass < 2; ++pass) {
    Tensor g(y.shape());
    fill(g, rng, mix);
    const std::string p = tag.str() + " backward " + std::to_string(pass);
    expect_bitwise(conv.backward(g), want.backward(g), p + " grad_input");
    expect_bitwise(*conv.gradients()[0], want.grad_weight_,
                   p + " grad_weight");
    expect_bitwise(*conv.gradients()[1], want.grad_bias_, p + " grad_bias");
  }
}

TEST(ConvLoweringEquivalenceTest, GroupedLoweringMatchesPerSampleClean) {
  for (const ConvCase& cc : kConvCases) {
    for (const std::int64_t batch : kBatches) {
      check_conv(cc, batch, Mix::kClean);
    }
  }
}

TEST(ConvLoweringEquivalenceTest, GroupedLoweringMatchesPerSampleSpecial) {
  for (const ConvCase& cc : kConvCases) {
    for (const std::int64_t batch : kBatches) {
      check_conv(cc, batch, Mix::kSpecial);
    }
  }
}

// -------------------------------------------------------- Linear, gemm_nt

TEST(ConvLoweringEquivalenceTest, LinearForwardMatchesDotProductGemmNt) {
  const std::int64_t shapes[][2] = {{120, 84}, {784, 100}};
  for (const auto& shape : shapes) {
    for (const std::int64_t batch : {1, 15, 32}) {
      for (const Mix mix : {Mix::kClean, Mix::kSpecial}) {
        std::ostringstream tag;
        tag << "Linear " << shape[0] << "->" << shape[1] << " batch " << batch
            << (mix == Mix::kClean ? " clean" : " special");
        Rng rng(7 + static_cast<std::uint64_t>(batch + shape[0]) +
                static_cast<std::uint64_t>(mix));
        Linear linear(shape[0], shape[1], rng);
        fill(*linear.parameters()[0], rng, mix);
        fill(*linear.parameters()[1], rng, Mix::kClean);
        Tensor x(Shape{batch, shape[0]});
        fill(x, rng, mix);
        expect_bitwise(linear.forward(x, true),
                       ref::linear_forward(*linear.parameters()[0],
                                           *linear.parameters()[1], x),
                       tag.str());
      }
    }
  }
}

// alpha and beta other than (1, 0), with -0 and NaN in the C being scaled:
// beta == 0 must still ignore C entirely.
TEST(ConvLoweringEquivalenceTest, GemmNtAlphaBetaMatchDotProduct) {
  const std::int64_t shapes[][3] = {{6, 784, 25}, {16, 100, 150},
                                    {120, 1, 400}, {3, 7, 5}, {1, 1, 1}};
  const float ab[][2] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, 0.25f},
                         {-1.5f, 0.0f}};
  for (const auto& s : shapes) {
    for (const auto& coef : ab) {
      for (const Mix mix : {Mix::kClean, Mix::kSpecial}) {
        Rng rng(99 + static_cast<std::uint64_t>(s[0] * s[1] + s[2]));
        std::vector<float> a(s[0] * s[1]), b(s[2] * s[1]), c(s[0] * s[2]);
        for (auto& v : a) v = draw(rng, mix);
        for (auto& v : b) v = draw(rng, mix);
        for (auto& v : c) v = draw(rng, mix);
        std::vector<float> want = c;
        ops::gemm_nt(a.data(), b.data(), c.data(), s[0], s[1], s[2], coef[0],
                     coef[1]);
        ref::gemm_nt(a.data(), b.data(), want.data(), s[0], s[1], s[2],
                     coef[0], coef[1]);
        std::ostringstream tag;
        tag << "gemm_nt " << s[0] << "x" << s[1] << "x" << s[2] << " alpha "
            << coef[0] << " beta " << coef[1];
        expect_bitwise(c.data(), want.data(), s[0] * s[2], tag.str());
      }
    }
  }
}

// gemm_nt packs B^T into a per-thread buffer: threads calling it at once
// with different shapes (so each buffer grows differently) must each get
// the reference result. Under ThreadSanitizer this is the race check.
TEST(ConvLoweringEquivalenceTest, GemmNtConcurrentCallsAreIndependent) {
  struct Job {
    std::int64_t m, k, n;
    std::vector<float> a, b, want, got;
  };
  std::vector<Job> jobs;
  const std::int64_t shapes[][3] = {
      {15, 784, 100}, {6, 784, 25}, {32, 120, 84}, {120, 1, 400}};
  for (const auto& s : shapes) {
    Job j{s[0], s[1], s[2], {}, {}, {}, {}};
    Rng rng(5 + static_cast<std::uint64_t>(s[1]));
    j.a.resize(j.m * j.k);
    j.b.resize(j.n * j.k);
    for (auto& v : j.a) v = draw(rng, Mix::kClean);
    for (auto& v : j.b) v = draw(rng, Mix::kClean);
    j.want.assign(j.m * j.n, 0.0f);
    ref::gemm_nt(j.a.data(), j.b.data(), j.want.data(), j.m, j.k, j.n);
    jobs.push_back(std::move(j));
  }
  std::vector<std::thread> threads;
  for (Job& j : jobs) {
    threads.emplace_back([&j] {
      j.got.assign(j.m * j.n, 0.0f);
      for (int rep = 0; rep < 3; ++rep) {
        ops::gemm_nt(j.a.data(), j.b.data(), j.got.data(), j.m, j.k, j.n);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Job& j : jobs) {
    expect_bitwise(j.got.data(), j.want.data(), j.m * j.n,
                   "concurrent gemm_nt k=" + std::to_string(j.k));
  }
}

}  // namespace
}  // namespace fedtrip::nn
