#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

namespace fedtrip::ops {

namespace {

// One B^T packing buffer per thread, shared by every path's gemm_nt, so
// concurrent calls from different threads are safe.
float* gemm_nt_scratch(std::size_t size) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < size) scratch.resize(size);
  return scratch.data();
}

// No FP contraction, said in the source of each kernel: a build without
// -ffp-contract=off must not fuse a*b + c either (see ops.h). gcc takes it
// as a function attribute; clang has no optimize attribute and takes a
// pragma at the start of each body instead.
#if defined(__clang__)
#define FEDTRIP_NO_CONTRACT _Pragma("clang fp contract(off)")
#define FEDTRIP_NO_CONTRACT_ATTR
#else
#define FEDTRIP_NO_CONTRACT
#define FEDTRIP_NO_CONTRACT_ATTR __attribute__((optimize("fp-contract=off")))
#endif

namespace baseline {
#define FEDTRIP_KERNEL FEDTRIP_NO_CONTRACT_ATTR
#define FEDTRIP_ISA_NAME "baseline"
#include "tensor/ops_kernels.inc"
#undef FEDTRIP_ISA_NAME
#undef FEDTRIP_KERNEL
}  // namespace baseline

#if defined(__x86_64__) || defined(__i386__)
#define FEDTRIP_HAVE_X86_PATHS 1

namespace avx2 {
#define FEDTRIP_KERNEL __attribute__((target("avx2"))) FEDTRIP_NO_CONTRACT_ATTR
#define FEDTRIP_ISA_NAME "avx2"
#include "tensor/ops_kernels.inc"
#undef FEDTRIP_ISA_NAME
#undef FEDTRIP_KERNEL
}  // namespace avx2

namespace avx512f {
#define FEDTRIP_KERNEL \
  __attribute__((target("avx512f"))) FEDTRIP_NO_CONTRACT_ATTR
#define FEDTRIP_ISA_NAME "avx512f"
#include "tensor/ops_kernels.inc"
#undef FEDTRIP_ISA_NAME
#undef FEDTRIP_KERNEL
}  // namespace avx512f
#endif

#undef FEDTRIP_NO_CONTRACT_ATTR
#undef FEDTRIP_NO_CONTRACT

// The widest path the CPU supports, chosen on first use.
const detail::Kernels& active() {
  static const detail::Kernels* const chosen = [] {
    for (const detail::Isa isa : {detail::Isa::kAvx512f, detail::Isa::kAvx2}) {
      if (const detail::Kernels* k = detail::kernels(isa)) return k;
    }
    return &baseline::kKernels;
  }();
  return *chosen;
}

}  // namespace

const detail::Kernels* detail::kernels(Isa isa) {
  switch (isa) {
    case Isa::kBaseline:
      return &baseline::kKernels;
#if defined(FEDTRIP_HAVE_X86_PATHS)
    case Isa::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") ? &avx2::kKernels : nullptr;
    case Isa::kAvx512f:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f") ? &avx512f::kKernels : nullptr;
#endif
    default:
      return nullptr;
  }
}

const char* active_isa() { return active().isa; }

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha, float beta) {
  active().gemm(a, b, c, m, k, n, alpha, beta);
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha, float beta) {
  active().gemm_tn(a, b, c, m, k, n, alpha, beta);
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha, float beta) {
  active().gemm_nt(a, b, c, m, k, n, alpha, beta);
}

void im2col(const float* img, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* cols,
            std::int64_t ld) {
  active().im2col(img, channels, height, width, kh, kw, stride, pad, cols,
                  ld);
}

void col2im(const float* cols, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* img,
            std::int64_t ld) {
  active().col2im(cols, channels, height, width, kh, kw, stride, pad, img,
                  ld);
}

void relu_forward(const float* x, float* y, float* mask, std::int64_t n) {
  active().relu_forward(x, y, mask, n);
}

void relu_backward(const float* dy, const float* mask, float* dx,
                   std::int64_t n) {
  active().relu_backward(dy, mask, dx, n);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(a.shape().rank() == 2 && b.shape().rank() == 2);
  assert(a.shape()[1] == b.shape()[0]);
  Tensor c(Shape{a.shape()[0], b.shape()[1]});
  gemm(a.data(), b.data(), c.data(), a.shape()[0], a.shape()[1], b.shape()[1]);
  return c;
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
