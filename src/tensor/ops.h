// ops: dense kernels (GEMM family, im2col/col2im, row softmax) used by the
// nn layers. All matrices are row-major.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace fedtrip::ops {

// Bitwise contract. A kernel change must keep every output bit: same
// per-element accumulation order, same zero handling. Blocking, packing and
// vectorising across independent output elements are fine; reassociating a
// sum, contracting a*b+c into an FMA or adding/removing a zero skip is not.
//
// Dispatch. gemm, gemm_tn, gemm_nt, im2col, col2im and the ReLU pair are
// compiled once per instruction-set path (baseline; on x86 also AVX2 and
// AVX-512F) and the widest path the CPU supports is chosen once, on first
// use. Every path keeps the contract, so the choice changes speed only, not
// a bit. The no-contraction rule is stated in the kernel source itself, not
// left to a compiler flag: AVX-512F carries FMA instructions, and a build
// without -ffp-contract=off would otherwise fuse the vector loop but not its
// scalar tail, making results depend on heap alignment.

/// C = alpha * A(MxK) * B(KxN) + beta * C(MxN).
/// Each C[i,j] is first set to 0 (beta == 0), kept (beta == 1) or scaled by
/// beta, then gets `+= (alpha*A[i,p]) * B[p,j]` for p = 0..K-1 in order.
/// Terms with alpha*A[i,p] == 0 are skipped (so 0 * Inf/NaN in B adds
/// nothing).
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha = 1.0f,
          float beta = 0.0f);

/// C = alpha * A^T * B + beta * C, where A is stored row-major as (K x M),
/// so A^T is (M x K); B is (K x N) and C is (M x N).
/// Same order and zero skip as gemm, with alpha*A[p,i] as the coefficient:
/// C[i,j] += (alpha*A[p,i]) * B[p,j] for p = 0..K-1, skipped when zero.
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha = 1.0f,
             float beta = 0.0f);

/// C = alpha * A(MxK) * B^T + beta * C, where B is stored row-major as
/// (N x K). Each C[i,j] = alpha*acc + (beta == 0 ? 0 : beta*C[i,j]) with
/// acc = 0 then `acc += A[i,p] * B[j,p]` for p = 0..K-1 in order and no
/// zero skip (0 * Inf in a term gives NaN; an all-(-0) sum gives +0).
/// B is packed transposed into a per-thread scratch buffer, so concurrent
/// calls from different threads are safe.
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha = 1.0f,
             float beta = 0.0f);

/// Tensor convenience wrappers (shapes asserted).
Tensor matmul(const Tensor& a, const Tensor& b);

/// Unfolds an input image [C, H, W] into columns for convolution: row
/// (c*kh + ki)*kw + kj holds that tap for every output position, out_h*out_w
/// values starting at cols + row*ld. ld = 0 means out_h*out_w, a packed
/// [C*kh*kw, out_h*out_w] matrix; a larger ld lets several samples sit side
/// by side, sample s at cols + s*out_h*out_w.
void im2col(const float* img, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* cols,
            std::int64_t ld = 0);

/// Inverse of im2col with the same layout and ld: accumulates columns back
/// into the image buffer (caller zeroes img first), taps in (c, ki, kj, oh,
/// ow) order.
void col2im(const float* cols, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* img,
            std::int64_t ld = 0);

/// Output spatial size of a convolution/pooling window.
inline std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                                  std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// ReLU forward over n elements: y = x > 0 ? x : 0 and mask = x > 0 ? 1 : 0,
/// so NaN and -0 give +0 with mask 0.
void relu_forward(const float* x, float* y, float* mask, std::int64_t n);

/// ReLU backward over n elements: dx = dy * mask, a real multiply, so an
/// Inf or NaN in dy gives NaN where mask is 0.
void relu_backward(const float* dy, const float* mask, float* dx,
                   std::int64_t n);

/// Numerically-stable in-place softmax over each row of a (rows x cols)
/// matrix.
void softmax_rows(float* x, std::int64_t rows, std::int64_t cols);

/// Name of the instruction-set path the dispatched kernels run on:
/// "baseline", "avx2" or "avx512f". For logs and bench context.
const char* active_isa();

namespace detail {

// Per-path kernel tables, so tests and benches can run one path against
// another. Everything else calls the dispatching functions above.

enum class Isa { kBaseline, kAvx2, kAvx512f };
/// Every path, narrowest first.
inline constexpr Isa kAllIsas[] = {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512f};

using GemmFn = void (*)(const float*, const float*, float*, std::int64_t,
                        std::int64_t, std::int64_t, float, float);
using LoweringFn = void (*)(const float*, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, float*, std::int64_t);
using ReluForwardFn = void (*)(const float*, float*, float*, std::int64_t);
using ReluBackwardFn = void (*)(const float*, const float*, float*,
                                std::int64_t);

struct Kernels {
  const char* isa;
  GemmFn gemm, gemm_tn, gemm_nt;
  LoweringFn im2col, col2im;
  ReluForwardFn relu_forward;
  ReluBackwardFn relu_backward;
};

/// The kernels compiled for `isa`, or nullptr when this build has no such
/// path or the CPU cannot run it. kBaseline is always available.
const Kernels* kernels(Isa isa);

}  // namespace detail

}  // namespace fedtrip::ops
