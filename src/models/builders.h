#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "models/zoo.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/model.h"
#include "nn/pooling.h"
#include "util/random.h"

namespace mmlib::models::internal {

/// Shared state threaded through architecture builders.
struct BuilderCtx {
  nn::Model* model;
  Rng* rng;  // init draws; null builds zero weights (see BuildModelWithParams)
  int64_t divisor;

  /// Scales a full-size channel width by the configured divisor.
  int64_t Ch(int64_t full_width) const {
    return std::max<int64_t>(1, full_width / divisor);
  }
};

/// Appends conv -> batchnorm (no activation). Returns the bn node id.
int64_t ConvBn(BuilderCtx* ctx, const std::string& name, int64_t input_node,
               int64_t in_ch, int64_t out_ch, int64_t kernel, int64_t stride,
               int64_t padding, int64_t groups = 1);

/// Appends conv -> batchnorm -> ReLU (clip=6 for ReLU6). Returns the relu
/// node id.
int64_t ConvBnRelu(BuilderCtx* ctx, const std::string& name,
                   int64_t input_node, int64_t in_ch, int64_t out_ch,
                   int64_t kernel, int64_t stride, int64_t padding,
                   int64_t groups = 1, float relu_clip = 0.0f);

/// Architecture builders; channel widths are full-size values scaled by the
/// config divisor inside. Every initial weight is drawn from `rng` in layer
/// order; a null `rng` draws nothing and leaves the weights zero.
Result<nn::Model> BuildResNet(const ModelConfig& config, Rng* rng);
Result<nn::Model> BuildMobileNetV2(const ModelConfig& config, Rng* rng);
Result<nn::Model> BuildGoogLeNet(const ModelConfig& config, Rng* rng);

}  // namespace mmlib::models::internal

