#include "algorithms/feddane.h"

#include <algorithm>

#include "nn/loss.h"
#include "nn/parameter_vector.h"
#include "tensor/thread_pool.h"
#include "tensor/vec_math.h"

namespace fedtrip::algorithms {

double FedDane::pre_round(std::vector<fl::ClientContext>& contexts) {
  if (contexts.empty()) return 0.0;

  std::vector<double> flops(contexts.size(), 0.0);
  parallel_for(0, contexts.size(), [&](std::size_t i) {
    fl::ClientContext& ctx = contexts[i];
    fl::Client& client = *ctx.client;
    nn::Sequential& model = client.model();
    nn::load_parameters(model, *ctx.global_params);
    model.zero_grad();

    // Full-batch gradient at w_global: accumulate batch-mean gradients
    // weighted by batch size.
    nn::SoftmaxCrossEntropy ce;
    auto batch = client.loader().all();
    // Process in chunks to bound memory for large shards.
    const std::size_t total = batch.labels.size();
    constexpr std::size_t kChunk = 256;
    std::vector<float> grad(ctx.global_params->size(), 0.0f);
    double fl = 0.0;
    for (std::size_t start = 0; start < total; start += kChunk) {
      const std::size_t end = std::min(total, start + kChunk);
      std::vector<std::size_t> rel(end - start);
      for (std::size_t j = start; j < end; ++j) rel[j - start] = j;
      // Re-slice from the already-materialised full batch.
      Tensor x(Shape{static_cast<std::int64_t>(end - start),
                     batch.inputs.shape()[1], batch.inputs.shape()[2],
                     batch.inputs.shape()[3]});
      const std::size_t sample =
          static_cast<std::size_t>(batch.inputs.numel()) /
          static_cast<std::size_t>(batch.inputs.shape()[0]);
      for (std::size_t j = start; j < end; ++j) {
        std::copy(batch.inputs.data() + j * sample,
                  batch.inputs.data() + (j + 1) * sample,
                  x.data() + (j - start) * sample);
      }
      std::vector<std::int64_t> labels(batch.labels.begin() +
                                           static_cast<std::ptrdiff_t>(start),
                                       batch.labels.begin() +
                                           static_cast<std::ptrdiff_t>(end));
      model.zero_grad();
      Tensor logits = model.forward(x, /*train=*/false);
      ce.forward(logits, labels);
      model.backward_params(ce.backward());
      auto g = nn::flatten_gradients(model);
      const float w = static_cast<float>(end - start) /
                      static_cast<float>(total);
      vec::axpy(w, g, grad);
      fl += static_cast<double>(end - start) *
            (model.forward_flops_per_sample() +
             model.backward_flops_per_sample());
    }
    local_grads_[client.id()] = std::move(grad);
    flops[i] = fl;
  });

  // Server averages the uploaded gradients into g_t.
  vec::zero(avg_grad_);
  const float w = 1.0f / static_cast<float>(contexts.size());
  for (const auto& ctx : contexts) {
    vec::axpy(w, local_grads_[ctx.client->id()], avg_grad_);
  }

  double total_flops = 0.0;
  for (double f : flops) total_flops += f;
  return total_flops;
}

double FedDane::adjust_gradients(std::vector<float>& delta,
                                 const std::vector<float>& w,
                                 const fl::ClientContext& ctx) {
  const std::vector<float>& wg = *ctx.global_params;
  const std::vector<float>& gk = local_grads_[ctx.client->id()];
  const std::size_t n = w.size();
  for (std::size_t i = 0; i < n; ++i) {
    delta[i] = avg_grad_[i] - gk[i] + mu_ * (w[i] - wg[i]);
  }
  return 4.0 * static_cast<double>(n);
}

}  // namespace fedtrip::algorithms
