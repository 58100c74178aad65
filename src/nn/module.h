// Module: base class for all neural-network layers.
//
// There is deliberately no autograd tape: every layer implements an explicit
// backward() that consumes the gradient w.r.t. its output and produces the
// gradient w.r.t. its input, accumulating parameter gradients along the way.
// This keeps the per-layer FLOP accounting (Tables III/V/VIII of the paper)
// exact and auditable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedtrip::nn {

class Module {
 public:
  virtual ~Module() = default;

  /// Computes the layer output for a batch. `train` toggles train-time
  /// behaviour (e.g. dropout). Implementations cache whatever they need for
  /// backward() in both modes: a backward() may follow a `train == false`
  /// forward (FedDANE takes its full-batch gradient that way), so `train`
  /// says nothing about whether the caches will be read.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Propagates `grad_output` (dL/d output) backwards: accumulates parameter
  /// gradients (+=) and returns dL/d input. Must be called after forward()
  /// on the same batch.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Accumulates exactly the parameter gradients backward() would, without
  /// computing dL/d input. For the first layer with parameters, whose input
  /// gradient nobody reads; layers whose input gradient has a cost of its
  /// own override it.
  virtual void backward_params(const Tensor& grad_output) {
    backward(grad_output);
  }

  /// Learnable parameter tensors (may be empty).
  virtual std::vector<Tensor*> parameters() { return {}; }

  /// Gradient tensors, parallel to parameters().
  virtual std::vector<Tensor*> gradients() { return {}; }

  virtual std::string name() const = 0;

  /// FLOPs of one forward pass for a single sample (multiply-add = 2 FLOPs).
  virtual double forward_flops_per_sample() const { return 0.0; }

  /// FLOPs of one backward pass for a single sample. The standard estimate
  /// for dense layers is 2x forward (grad-input + grad-weight GEMMs).
  virtual double backward_flops_per_sample() const {
    return 2.0 * forward_flops_per_sample();
  }

  void zero_grad() {
    for (Tensor* g : gradients()) g->zero();
  }

  std::int64_t parameter_count() {
    std::int64_t n = 0;
    for (Tensor* p : parameters()) n += p->numel();
    return n;
  }
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace fedtrip::nn
