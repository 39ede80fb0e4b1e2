#include "nessa/nn/model.hpp"

#include <stdexcept>

#include "nessa/nn/activation.hpp"
#include "nessa/nn/dense.hpp"
#include "nessa/nn/dropout.hpp"

namespace nessa::nn {

void Sequential::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layers_.push_back(std::move(layer));
}

Tensor Sequential::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, train);
  return x;
}

void Sequential::backward(const Tensor& grad_output) {
  // Two buffers take turns as the gradient a layer reads and the one it
  // writes. Layer 0 writes none: nothing reads dL/d(input).
  Tensor buffers[2];
  const Tensor* g = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Tensor* grad_input = i == 0 ? nullptr : &buffers[i % 2];
    layers_[i]->backward(*g, grad_input);
    g = grad_input;
  }
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_) {
    for (auto& p : layer->params()) out.push_back(p);
  }
  return out;
}

void Sequential::zero_grads() {
  for (auto& p : params()) p.grad->fill(0.0f);
}

std::size_t Sequential::parameter_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    // params() is non-const by interface; clone-free workaround via cast is
    // safe because we only read sizes.
    for (auto& p : const_cast<Layer&>(*layer).params()) n += p.value->size();
  }
  return n;
}

std::size_t Sequential::flops_per_sample() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer->flops_per_sample();
  return n;
}

Sequential Sequential::clone() const {
  Sequential copy;
  for (const auto& layer : layers_) copy.layers_.push_back(layer->clone());
  return copy;
}

void Sequential::load_params_from(const Sequential& other) {
  auto mine = params();
  auto theirs = const_cast<Sequential&>(other).params();
  if (mine.size() != theirs.size()) {
    throw std::invalid_argument("load_params_from: architecture mismatch");
  }
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].value->shape() != theirs[i].value->shape()) {
      throw std::invalid_argument("load_params_from: parameter shape mismatch");
    }
    *mine[i].value = *theirs[i].value;
  }
}

Sequential Sequential::mlp(const std::vector<std::size_t>& dims,
                           util::Rng& rng, float dropout_rate) {
  if (dims.size() < 2) {
    throw std::invalid_argument("Sequential::mlp: need at least in/out dims");
  }
  Sequential m;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    m.add(std::make_unique<Dense>(dims[i], dims[i + 1], rng));
    const bool hidden = i + 2 < dims.size();
    if (hidden) {
      m.add(std::make_unique<Relu>());
      if (dropout_rate > 0.0f) {
        m.add(std::make_unique<Dropout>(dropout_rate, rng));
      }
    }
  }
  return m;
}

const ModelSpec& model_spec(const std::string& paper_name) {
  // paper_gflops_per_sample / params: standard published numbers for the
  // paper's networks at the native input sizes used per dataset.
  static const std::vector<ModelSpec> kSpecs = {
      {"ResNet-20", {128, 64}, 0.0f, 0.041, 0.27},
      {"ResNet-18", {256, 128}, 0.0f, 1.82, 11.7},
      {"ResNet-50", {384, 192}, 0.0f, 4.09, 25.6},
  };
  for (const auto& spec : kSpecs) {
    if (spec.paper_name == paper_name) return spec;
  }
  throw std::invalid_argument("model_spec: unknown model " + paper_name);
}

Sequential build_model(const ModelSpec& spec, std::size_t input_dim,
                       std::size_t num_classes, util::Rng& rng) {
  std::vector<std::size_t> dims;
  dims.push_back(input_dim);
  for (std::size_t h : spec.hidden) dims.push_back(h);
  dims.push_back(num_classes);
  return Sequential::mlp(dims, rng, spec.dropout);
}

}  // namespace nessa::nn
