// Sequential: ordered container of modules with full and partial backward.
//
// The partial entry points (forward_features / backward_from) exist for
// MOON-style model-contrastive training, which needs penultimate-layer
// representations of three models and injects an extra gradient at the
// feature layer. Training needs only parameter gradients, so its backward
// entries (backward_params, backward_from_features) stop at the first
// module with parameters and skip that module's input gradient.
#pragma once

#include <memory>
#include <vector>

#include "nn/module.h"

namespace fedtrip::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a module; returns *this for chaining.
  Sequential& add(ModulePtr m) {
    modules_.push_back(std::move(m));
    return *this;
  }

  std::size_t size() const { return modules_.size(); }
  Module& module(std::size_t i) { return *modules_[i]; }

  Tensor forward(const Tensor& input, bool train) override {
    Tensor x = input;
    for (auto& m : modules_) x = m->forward(x, train);
    return x;
  }

  Tensor backward(const Tensor& grad_output) override {
    Tensor g = grad_output;
    for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
      g = (*it)->backward(g);
    }
    return g;
  }

  /// The training backward: the parameter gradients of backward(), bit for
  /// bit, without dL/d input. Modules n-1 .. f+1 run backward(), module f
  /// (the first with parameters) runs backward_params(), and the modules
  /// before f are not called.
  void backward_params(const Tensor& grad_output) override {
    backward_params_below(modules_.size(), grad_output);
  }

  /// Runs forward through the first `feature_layers()` modules and returns
  /// the representation (for MOON). Also caches layer inputs so
  /// backward_from() can be used afterwards.
  Tensor forward_features(const Tensor& input, bool train) {
    Tensor x = input;
    for (std::size_t i = 0; i < feature_boundary(); ++i) {
      x = modules_[i]->forward(x, train);
    }
    return x;
  }

  /// Continues a forward_features() pass through the remaining modules.
  Tensor forward_head(const Tensor& features, bool train) {
    Tensor x = features;
    for (std::size_t i = feature_boundary(); i < modules_.size(); ++i) {
      x = modules_[i]->forward(x, train);
    }
    return x;
  }

  /// Backward through the head modules only: consumes dL/d logits and
  /// returns dL/d features. Combined with backward_from_features() this
  /// splits a full backward pass at the feature boundary so an extra
  /// feature-level gradient (MOON's contrastive term) can be injected.
  Tensor backward_head(const Tensor& grad_output) {
    Tensor g = grad_output;
    for (std::size_t i = modules_.size(); i-- > feature_boundary();) {
      g = modules_[i]->backward(g);
    }
    return g;
  }

  /// Backward starting at the feature boundary: propagates `grad_features`
  /// through modules [0, feature_boundary()). Parameter gradients accumulate
  /// on top of whatever a full backward() already produced. Like
  /// backward_params(), it computes no dL/d input.
  void backward_from_features(const Tensor& grad_features) {
    backward_params_below(feature_boundary(), grad_features);
  }

  /// Index of the first "head" module. By convention the head is the final
  /// module (the classifier Linear); everything before it is the feature
  /// extractor.
  std::size_t feature_boundary() const {
    return modules_.empty() ? 0 : modules_.size() - 1;
  }

  std::vector<Tensor*> parameters() override {
    std::vector<Tensor*> out;
    for (auto& m : modules_) {
      for (Tensor* p : m->parameters()) out.push_back(p);
    }
    return out;
  }

  std::vector<Tensor*> gradients() override {
    std::vector<Tensor*> out;
    for (auto& m : modules_) {
      for (Tensor* g : m->gradients()) out.push_back(g);
    }
    return out;
  }

  std::string name() const override { return "Sequential"; }

  double forward_flops_per_sample() const override {
    double total = 0.0;
    for (const auto& m : modules_) total += m->forward_flops_per_sample();
    return total;
  }

  double backward_flops_per_sample() const override {
    double total = 0.0;
    for (const auto& m : modules_) total += m->backward_flops_per_sample();
    return total;
  }

 private:
  // Parameter-gradient backward through modules [0, end), stopping at the
  // first module with parameters.
  void backward_params_below(std::size_t end, Tensor g) {
    std::size_t first = 0;
    while (first < end && modules_[first]->parameters().empty()) ++first;
    if (first == end) return;
    for (std::size_t i = end; --i > first;) g = modules_[i]->backward(g);
    modules_[first]->backward_params(g);
  }

  std::vector<ModulePtr> modules_;
};

}  // namespace fedtrip::nn
