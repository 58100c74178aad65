// Micro-benchmarks (google-benchmark) for the hot kernels: GEMM, the paper
// CNN's conv layers and Linear/gemm_nt shapes, and the attaching operations
// whose 2|w| / 4|w| costs drive the paper's Table V/VIII accounting. The
// context block names the instruction-set path the kernels dispatch to
// ("kernels"), and the conv1 GEMMs also run once per supported path.
#include <benchmark/benchmark.h>

#include <string>

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/vec_math.h"

namespace {

using namespace fedtrip;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    ops::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The paper CNN's three convs (src/nn/models.cpp build_cnn on 28x28 MNIST):
// 1->6 5x5 pad 2 (28x28 out), 6->16 5x5 (10x10 out), 16->120 5x5 on 5x5 (1x1
// out). Args: layer index, batch (15 = a train step, 32 = an eval
// sub-batch).
struct ConvShape {
  std::int64_t in_c, out_c, kernel, pad, hw;
};
constexpr ConvShape kPaperConvs[] = {
    {1, 6, 5, 2, 28}, {6, 16, 5, 0, 14}, {16, 120, 5, 0, 5}};

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[static_cast<std::size_t>(i)] = rng.normal();
  }
  return t;
}

void BM_Conv2dForward(benchmark::State& state) {
  const ConvShape& s = kPaperConvs[state.range(0)];
  Rng rng(2);
  nn::Conv2d conv(s.in_c, s.out_c, s.kernel, 1, s.pad, rng);
  const Tensor x =
      random_tensor(Shape{state.range(1), s.in_c, s.hw, s.hw}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_Conv2dForward)
    ->ArgsProduct({{0, 1, 2}, {15, 32}})
    ->ArgNames({"layer", "batch"});

void BM_Conv2dBackward(benchmark::State& state) {
  const ConvShape& s = kPaperConvs[state.range(0)];
  Rng rng(3);
  nn::Conv2d conv(s.in_c, s.out_c, s.kernel, 1, s.pad, rng);
  const Tensor x =
      random_tensor(Shape{state.range(1), s.in_c, s.hw, s.hw}, rng);
  const Tensor y = conv.forward(x, true);
  const Tensor g = random_tensor(y.shape(), rng);
  for (auto _ : state) {
    conv.zero_grad();
    Tensor gx = conv.backward(g);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_Conv2dBackward)
    ->ArgsProduct({{0, 1, 2}, {15, 32}})
    ->ArgNames({"layer", "batch"});

// Linear::forward (gemm_nt + bias) at the CNN's 120->84 and the MLP's
// 784->100 layers. Args: in, out, batch.
void BM_LinearForward(benchmark::State& state) {
  Rng rng(4);
  nn::Linear linear(state.range(0), state.range(1), rng);
  const Tensor x = random_tensor(Shape{state.range(2), state.range(0)}, rng);
  for (auto _ : state) {
    Tensor y = linear.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(2));
}
BENCHMARK(BM_LinearForward)
    ->Args({120, 84, 15})
    ->Args({784, 100, 15})
    ->Args({784, 100, 32})
    ->ArgNames({"in", "out", "batch"});

// gemm_nt alone: C(m x n) += A(m x k) * B^T, B stored (n x k). The conv
// weight-grad shapes are (out_c, out_hw, in_c*5*5) with beta 1; the Linear
// shape is (batch, in, out) with beta 0.
void BM_GemmNt(benchmark::State& state) {
  const std::int64_t m = state.range(0), k = state.range(1),
                     n = state.range(2);
  const float beta = static_cast<float>(state.range(3));
  Rng rng(5);
  std::vector<float> a(m * k), b(n * k), c(m * n, 0.0f);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    ops::gemm_nt(a.data(), b.data(), c.data(), m, k, n, 1.0f, beta);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmNt)
    ->Args({6, 784, 25, 1})
    ->Args({16, 100, 150, 1})
    ->Args({120, 1, 400, 1})
    ->Args({15, 784, 100, 0})
    ->ArgNames({"m", "k", "n", "beta"});

// conv1 of the paper CNN on one instruction-set path, called through the
// per-path table: the forward gemm (6 x 25 x 784) and the weight-gradient
// gemm_nt (6 x 784 x 25, beta 1) at batch 15's per-sample shapes.
void BM_Conv1GemmOnPath(benchmark::State& state, ops::detail::GemmFn fn,
                        std::int64_t m, std::int64_t k, std::int64_t n,
                        float beta) {
  Rng rng(6);
  std::vector<float> a(m * k), b(k * n), c(m * n, 0.0f);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    fn(a.data(), b.data(), c.data(), m, k, n, 1.0f, beta);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

void register_conv1_paths() {
  for (const ops::detail::Isa isa : ops::detail::kAllIsas) {
    const ops::detail::Kernels* k = ops::detail::kernels(isa);
    if (k == nullptr) continue;
    const std::string path = k->isa;
    benchmark::RegisterBenchmark(("BM_Conv1Gemm/" + path).c_str(),
                                 BM_Conv1GemmOnPath, k->gemm, 6, 25, 784,
                                 0.0f);
    benchmark::RegisterBenchmark(("BM_Conv1GemmNt/" + path).c_str(),
                                 BM_Conv1GemmOnPath, k->gemm_nt, 6, 784, 25,
                                 1.0f);
  }
}

// The FedTrip attaching operation on a CNN-sized parameter vector: measures
// the actual cost behind the paper's "negligible 4K|w|" claim.
void BM_FedTripAttach(benchmark::State& state) {
  const std::size_t n = 620'000;
  Rng rng(4);
  std::vector<float> w(n), wg(n), wh(n), delta(n);
  for (auto& v : w) v = rng.normal();
  for (auto& v : wg) v = rng.normal();
  for (auto& v : wh) v = rng.normal();
  const float mu = 0.4f, xi = 0.5f;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      delta[i] = mu * ((w[i] - wg[i]) + xi * (wh[i] - w[i]));
    }
    benchmark::DoNotOptimize(delta.data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * n);
}
BENCHMARK(BM_FedTripAttach);

void BM_FedProxAttach(benchmark::State& state) {
  const std::size_t n = 620'000;
  Rng rng(5);
  std::vector<float> w(n), wg(n), delta(n);
  for (auto& v : w) v = rng.normal();
  for (auto& v : wg) v = rng.normal();
  const float mu = 0.1f;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) delta[i] = mu * (w[i] - wg[i]);
    benchmark::DoNotOptimize(delta.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_FedProxAttach);

// One feedforward of the CNN on a batch — the unit MOON pays (1+p) extra
// times per local iteration.
void BM_CnnFeedforward(benchmark::State& state) {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kCNN;
  auto model = nn::build_model(spec, 6);
  Rng rng(7);
  Tensor x(Shape{16, 1, 28, 28});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    Tensor y = model->forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_CnnFeedforward);

void BM_WeightedAggregation(benchmark::State& state) {
  const std::size_t n = 620'000;
  Rng rng(8);
  std::vector<std::vector<float>> updates(4, std::vector<float>(n));
  for (auto& u : updates) {
    for (auto& v : u) v = rng.normal();
  }
  std::vector<float> global(n);
  for (auto _ : state) {
    vec::zero(global);
    for (const auto& u : updates) {
      vec::accumulate_weighted(global, 0.25f, u);
    }
    benchmark::DoNotOptimize(global.data());
  }
}
BENCHMARK(BM_WeightedAggregation);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("kernels", fedtrip::ops::active_isa());
  register_conv1_paths();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
