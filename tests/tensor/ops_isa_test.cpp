// Per-path checker for the dispatched kernels of ops.h: every kernel runs on
// every instruction-set path this CPU supports, with the same seeded inputs,
// and must match the baseline path bit for bit (any NaN matches any NaN).
// Each run also repeats with its buffers shifted by 1 and 3 floats, so the
// vector loops split into peel, body and tail at different elements: a
// path that fused a multiply-add in only one of them would change a bit
// there. Inputs carry ReLU zeros, -0, denormals and (special mix) +-Inf and
// NaN. The FTZ/DAZ flags are left as the process starts them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../support/bitwise.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace fedtrip::ops {
namespace {

using detail::Isa;
using detail::kAllIsas;
using detail::Kernels;
using testing::draw;
using testing::expect_bitwise;
using testing::Mix;

std::vector<const Kernels*> supported_paths() {
  std::vector<const Kernels*> out;
  for (const Isa isa : kAllIsas) {
    if (const Kernels* k = detail::kernels(isa)) out.push_back(k);
  }
  return out;
}

std::vector<float> random_vec(std::int64_t n, Rng& rng, Mix mix) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = draw(rng, mix);
  return v;
}

// A copy of `v` that starts `offset` floats into its own allocation.
struct Shifted {
  Shifted(const std::vector<float>& v, std::size_t offset)
      : store(offset + v.size()), p(store.data() + offset) {
    std::copy(v.begin(), v.end(), p);
  }
  std::vector<float> store;
  float* p;
};

// The checker: runs `op(kernels, inputs, out)` on the baseline path, then
// on every supported path at each shift, each time on fresh copies of
// `inputs` and of `out_init`, and expects every `out` bitwise equal to the
// baseline's.
template <typename Op>
void check_paths(const std::string& what,
                 const std::vector<std::vector<float>>& inputs,
                 const std::vector<float>& out_init, Op op) {
  auto run = [&](const Kernels& k, std::size_t offset) {
    std::vector<Shifted> in;
    std::vector<const float*> ptrs;
    in.reserve(inputs.size());
    for (const auto& v : inputs) {
      in.emplace_back(v, offset);
      ptrs.push_back(in.back().p);
    }
    Shifted out(out_init, offset);
    op(k, ptrs, out.p);
    return std::vector<float>(out.p, out.p + out_init.size());
  };
  const std::vector<float> want = run(*detail::kernels(Isa::kBaseline), 0);
  for (const Kernels* k : supported_paths()) {
    for (const std::size_t offset : {0u, 1u, 3u}) {
      const std::vector<float> got = run(*k, offset);
      expect_bitwise(got.data(), want.data(),
                     static_cast<std::int64_t>(want.size()),
                     what + " on " + k->isa + " shifted " +
                         std::to_string(offset));
    }
  }
}

TEST(OpsIsaTest, BaselineAlwaysAvailableAndWidestPathIsActive) {
  ASSERT_NE(detail::kernels(Isa::kBaseline), nullptr);
  const std::vector<const Kernels*> paths = supported_paths();
  std::string names;
  for (const Kernels* k : paths) names += std::string(k->isa) + " ";
  RecordProperty("paths", names);
  EXPECT_STREQ(active_isa(), paths.back()->isa) << "supported: " << names;
}

// -------------------------------------------------------------- GEMM family

// The paper CNN's conv GEMMs (forward, weight grad, input grad), the MLP's
// 784-wide Linear, then odd sizes around the vector widths.
const std::int64_t kGemmShapes[][3] = {
    {6, 25, 784},  {16, 150, 100}, {120, 400, 1}, {6, 784, 25},
    {16, 100, 150}, {15, 784, 100}, {150, 16, 100}, {3, 7, 5},
    {5, 13, 17},   {2, 9, 33},     {1, 1, 1},      {4, 3, 47}};

// beta = 0 must ignore a C full of NaN; the others scale or keep it.
const float kAlphaBeta[][2] = {
    {1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, 0.25f}, {-1.5f, 0.0f}};

TEST(OpsIsaTest, GemmFamilyMatchesBaselineOnEveryPath) {
  for (const auto& s : kGemmShapes) {
    const std::int64_t m = s[0], k = s[1], n = s[2];
    for (const auto& ab : kAlphaBeta) {
      for (const Mix mix : {Mix::kClean, Mix::kSpecial}) {
        Rng rng(11 + static_cast<std::uint64_t>(m * 1000 + k * 10 + n) +
                static_cast<std::uint64_t>(mix));
        const auto a = random_vec(m * k, rng, mix);
        const auto b_kn = random_vec(k * n, rng, mix);
        auto c = random_vec(m * n, rng, mix);
        if (ab[1] == 0.0f) {
          for (std::size_t i = 0; i < c.size(); i += 3) {
            c[i] = std::numeric_limits<float>::quiet_NaN();
          }
        }
        const float alpha = ab[0], beta = ab[1];
        std::ostringstream tag;
        tag << m << "x" << k << "x" << n << " alpha " << alpha << " beta "
            << beta << (mix == Mix::kClean ? " clean" : " special");
        // a is (m x k) for gemm and gemm_nt, read as (k x m) by gemm_tn;
        // b_kn is (k x n) for gemm and gemm_tn, read as (n x k) by gemm_nt.
        check_paths("gemm " + tag.str(), {a, b_kn}, c,
                    [&](const Kernels& ks, const auto& in, float* out) {
                      ks.gemm(in[0], in[1], out, m, k, n, alpha, beta);
                    });
        check_paths("gemm_tn " + tag.str(), {a, b_kn}, c,
                    [&](const Kernels& ks, const auto& in, float* out) {
                      ks.gemm_tn(in[0], in[1], out, m, k, n, alpha, beta);
                    });
        check_paths("gemm_nt " + tag.str(), {a, b_kn}, c,
                    [&](const Kernels& ks, const auto& in, float* out) {
                      ks.gemm_nt(in[0], in[1], out, m, k, n, alpha, beta);
                    });
      }
    }
  }
}

// ---------------------------------------------------------------- lowering

struct ConvGeometry {
  const char* name;
  std::int64_t channels, kernel, stride, pad, h, w;
};

// The paper CNN's three convs, then stride 2 with padding, a 1x1 kernel
// and odd, non-square sizes.
const ConvGeometry kConvs[] = {
    {"paper_conv1", 1, 5, 1, 2, 28, 28}, {"paper_conv2", 6, 5, 1, 0, 14, 14},
    {"paper_conv3", 16, 5, 1, 0, 5, 5},  {"stride2_pad1", 3, 3, 2, 1, 9, 9},
    {"kernel1", 4, 1, 1, 0, 6, 6},       {"odd_sizes", 3, 3, 1, 1, 7, 5},
    {"odd_stride3", 2, 2, 3, 0, 11, 13}};

TEST(OpsIsaTest, Im2colCol2imMatchBaselineOnEveryPath) {
  for (const ConvGeometry& g : kConvs) {
    const std::int64_t out_hw = conv_out_size(g.h, g.kernel, g.stride, g.pad) *
                                conv_out_size(g.w, g.kernel, g.stride, g.pad);
    const std::int64_t rows = g.channels * g.kernel * g.kernel;
    // ld 0 is one packed sample; 3 * out_hw places this sample second of
    // three side by side, as Conv2d's grouped lowering does.
    for (const std::int64_t group : {1, 3}) {
      const std::int64_t ld = group == 1 ? 0 : group * out_hw;
      const std::int64_t col_size = rows * group * out_hw;
      const std::int64_t at = group == 1 ? 0 : out_hw;
      for (const Mix mix : {Mix::kClean, Mix::kSpecial}) {
        Rng rng(23 + static_cast<std::uint64_t>(g.h * 31 + g.channels) +
                static_cast<std::uint64_t>(group * 7) +
                static_cast<std::uint64_t>(mix));
        const auto img = random_vec(g.channels * g.h * g.w, rng, mix);
        const auto cols = random_vec(col_size, rng, mix);
        const std::string tag = std::string(g.name) + " group " +
                                std::to_string(group) +
                                (mix == Mix::kClean ? " clean" : " special");
        // im2col overwrites its sample's columns and leaves the rest.
        check_paths("im2col " + tag, {img}, cols,
                    [&](const Kernels& ks, const auto& in, float* out) {
                      ks.im2col(in[0], g.channels, g.h, g.w, g.kernel,
                                g.kernel, g.stride, g.pad, out + at, ld);
                    });
        // col2im accumulates into a non-zero image.
        check_paths("col2im " + tag, {cols}, img,
                    [&](const Kernels& ks, const auto& in, float* out) {
                      ks.col2im(in[0] + at, g.channels, g.h, g.w, g.kernel,
                                g.kernel, g.stride, g.pad, out, ld);
                    });
      }
    }
  }
}

// -------------------------------------------------------------------- ReLU

// The branchy loops the ReLU kernels replaced: copy, then zero what is not
// > 0 and set the mask where it is; backward multiplies by the mask.
void ref_relu_forward(const float* x, float* y, float* mask, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i];
    mask[i] = 0.0f;
    if (y[i] > 0.0f) {
      mask[i] = 1.0f;
    } else {
      y[i] = 0.0f;
    }
  }
}

TEST(OpsIsaTest, ReluMatchesBranchyReferenceOnEveryPath) {
  for (const std::int64_t n : {1, 7, 15, 16, 17, 33, 4704, 4705}) {
    for (const Mix mix : {Mix::kClean, Mix::kSpecial}) {
      Rng rng(31 + static_cast<std::uint64_t>(n) +
              static_cast<std::uint64_t>(mix));
      const auto x = random_vec(n, rng, mix);
      const auto dy = random_vec(n, rng, mix);
      std::vector<float> want_y(x.size()), want_mask(x.size()),
          want_dx(x.size());
      ref_relu_forward(x.data(), want_y.data(), want_mask.data(), n);
      for (std::size_t i = 0; i < x.size(); ++i) {
        want_dx[i] = dy[i] * want_mask[i];
      }
      const std::string tag = "n " + std::to_string(n) +
                              (mix == Mix::kClean ? " clean" : " special");
      for (const Kernels* k : supported_paths()) {
        const std::string on = tag + " on " + k->isa;
        std::vector<float> y(x.size(), 7.0f), mask(x.size(), 7.0f),
            dx(x.size(), 7.0f);
        k->relu_forward(x.data(), y.data(), mask.data(), n);
        k->relu_backward(dy.data(), mask.data(), dx.data(), n);
        expect_bitwise(y.data(), want_y.data(), n, "relu y " + on);
        expect_bitwise(mask.data(), want_mask.data(), n, "relu mask " + on);
        expect_bitwise(dx.data(), want_dx.data(), n, "relu dx " + on);
      }
      // Shifted buffers, against the baseline path.
      check_paths("relu_forward y " + tag, {x}, x,
                  [&](const Kernels& ks, const auto& in, float* out) {
                    std::vector<float> mask(x.size());
                    ks.relu_forward(in[0], out, mask.data(), n);
                  });
      check_paths("relu_backward " + tag, {dy, want_mask}, dy,
                  [&](const Kernels& ks, const auto& in, float* out) {
                    ks.relu_backward(in[0], in[1], out, n);
                  });
    }
  }
}

// NaN and -0 map to +0 with mask 0; a NaN gradient survives a 0 mask.
TEST(OpsIsaTest, ReluSpecialValues) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> x = {nan, -0.0f, 0.0f, -1.0f, 2.0f, inf, -inf};
  for (const Kernels* k : supported_paths()) {
    std::vector<float> y(x.size()), mask(x.size()), dx(x.size());
    k->relu_forward(x.data(), y.data(), mask.data(),
                    static_cast<std::int64_t>(x.size()));
    const std::vector<float> want_y = {0.0f, 0.0f, 0.0f, 0.0f,
                                       2.0f, inf,  0.0f};
    const std::vector<float> want_mask = {0.0f, 0.0f, 0.0f, 0.0f,
                                          1.0f, 1.0f, 0.0f};
    expect_bitwise(y.data(), want_y.data(), 7, std::string("y ") + k->isa);
    expect_bitwise(mask.data(), want_mask.data(), 7,
                   std::string("mask ") + k->isa);
    const std::vector<float> dy = {nan, inf, 1.0f, 1.0f, 3.0f, -1.0f, 1.0f};
    k->relu_backward(dy.data(), mask.data(), dx.data(), 7);
    EXPECT_TRUE(std::isnan(dx[0])) << k->isa;
    EXPECT_TRUE(std::isnan(dx[1])) << k->isa;
    EXPECT_EQ(dx[4], 3.0f) << k->isa;
    EXPECT_EQ(dx[5], -1.0f) << k->isa;
  }
}

}  // namespace
}  // namespace fedtrip::ops
