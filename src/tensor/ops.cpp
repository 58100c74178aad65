#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

namespace fedtrip::ops {

namespace {
// Inner kernel, a plain saxpy (no register blocking): C[i,:] += a_ik *
// B[k,:]. This "saxpy over rows" form streams B and C, which the compiler
// vectorises at -O2.
inline void gemm_row_update(const float* b_row, float* c_row, float a_ik,
                            std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
}
}  // namespace

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha, float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    if (beta == 0.0f) {
      std::memset(c_row, 0, static_cast<std::size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) c_row[j] *= beta;
    }
    const float* a_row = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float a_ip = alpha * a_row[p];
      if (a_ip != 0.0f) gemm_row_update(b + p * n, c_row, a_ip, n);
    }
  }
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha, float beta) {
  // A is stored (k x m); we compute C(m x n) = alpha A^T B + beta C.
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    if (beta == 0.0f) {
      std::memset(c_row, 0, static_cast<std::size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) c_row[j] *= beta;
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const float a_pi = alpha * a[p * m + i];
      if (a_pi != 0.0f) gemm_row_update(b + p * n, c_row, a_pi, n);
    }
  }
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha, float beta) {
  // B is stored (n x k); C(m x n) = alpha A B^T + beta C. The dot product
  // acc = sum_p A[i,p] * B[j,p] cannot vectorise over p without
  // reassociating it, so pack B^T (k x n) once and run the saxpy form over
  // a row of n accumulators instead: every acc[j] still sees the same +=
  // sequence in p order. No zero skip, unlike gemm: 0 * Inf must stay NaN.
  thread_local std::vector<float> scratch;
  const auto kn = static_cast<std::size_t>(k * n);
  if (scratch.size() < kn + static_cast<std::size_t>(n)) {
    scratch.resize(kn + static_cast<std::size_t>(n));
  }
  float* bt = scratch.data();
  float* acc = bt + kn;
  for (std::int64_t j = 0; j < n; ++j) {
    const float* b_row = b + j * k;
    for (std::int64_t p = 0; p < k; ++p) bt[p * n + j] = b_row[p];
  }
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    std::fill(acc, acc + n, 0.0f);
    for (std::int64_t p = 0; p < k; ++p) {
      gemm_row_update(bt + p * n, acc, a_row[p], n);
    }
    for (std::int64_t j = 0; j < n; ++j) {
      c_row[j] = alpha * acc[j] + (beta == 0.0f ? 0.0f : beta * c_row[j]);
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(a.shape().rank() == 2 && b.shape().rank() == 2);
  assert(a.shape()[1] == b.shape()[0]);
  Tensor c(Shape{a.shape()[0], b.shape()[1]});
  gemm(a.data(), b.data(), c.data(), a.shape()[0], a.shape()[1], b.shape()[1]);
  return c;
}

void im2col(const float* img, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* cols,
            std::int64_t ld) {
  const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
  if (ld == 0) ld = out_h * out_w;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        float* col_row = cols + ((c * kh + ki) * kw + kj) * ld;
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
            std::int64_t stride, std::int64_t pad, float* img,
            std::int64_t ld) {
  const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
  if (ld == 0) ld = out_h * out_w;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const float* col_row = cols + ((c * kh + ki) * kw + kj) * ld;
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

void softmax_rows(float* x, std::int64_t rows, std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    float mx = row[0];
    for (std::int64_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (std::int64_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

}  // namespace fedtrip::ops
