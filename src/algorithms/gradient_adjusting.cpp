#include "algorithms/gradient_adjusting.h"

#include "nn/loss.h"
#include "nn/parameter_vector.h"

namespace fedtrip::algorithms {

fl::ClientUpdate GradientAdjustingAlgorithm::train_client(
    fl::ClientContext& ctx) {
  fl::Client& client = *ctx.client;
  nn::Sequential& model = client.model();
  nn::load_parameters(model, *ctx.global_params);
  client.optimizer().reset();
  on_round_start(ctx);

  nn::SoftmaxCrossEntropy ce;
  double loss_sum = 0.0;
  double flops = 0.0;
  std::size_t steps = 0;
  std::vector<float> w_scratch;
  std::vector<float> delta(ctx.global_params->size());

  for (std::size_t epoch = 0; epoch < ctx.local_epochs; ++epoch) {
    for (auto& batch : client.loader().epoch(ctx.rng)) {
      Tensor logits = model.forward(batch.inputs, /*train=*/true);
      loss_sum += ce.forward(logits, batch.labels);
      model.zero_grad();
      model.backward_params(ce.backward());

      const double batch_n = static_cast<double>(batch.labels.size());
      flops += batch_n * (model.forward_flops_per_sample() +
                          model.backward_flops_per_sample());

      if (has_adjustment()) {
        nn::copy_parameters_into(model, w_scratch);
        flops += adjust_gradients(delta, w_scratch, ctx);
        nn::add_to_gradients(model, delta);
      }
      client.optimizer().step(model);
      ++steps;
    }
  }

  fl::ClientUpdate update;
  update.client_id = client.id();
  update.params = nn::flatten_parameters(model);
  update.num_samples = client.num_samples();
  update.train_loss = steps > 0 ? loss_sum / static_cast<double>(steps) : 0.0;
  update.flops = flops;
  on_round_end(update.params, steps, ctx, update);
  return update;
}

}  // namespace fedtrip::algorithms
