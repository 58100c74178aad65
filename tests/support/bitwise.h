// Special-value inputs and bitwise comparison for the kernel equivalence
// tests: a kernel that skips or adds a zero term, reassociates a sum or
// fuses a multiply-add shows up as a changed bit.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace fedtrip::testing {

enum class Mix { kClean, kSpecial };

// Normal values with ReLU zeros, -0 and denormals; kSpecial adds sparse
// +-Inf and NaN on top.
inline float draw(Rng& rng, Mix mix) {
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

inline void fill(Tensor& t, Rng& rng, Mix mix) {
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
inline bool same_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

inline void expect_bitwise(const float* got, const float* want,
                           std::int64_t count, const std::string& what) {
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

inline void expect_bitwise(const Tensor& got, const Tensor& want,
                           const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  expect_bitwise(got.data(), want.data(), got.numel(), what);
}

}  // namespace fedtrip::testing
