#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/model.h"
#include "util/bytes.h"
#include "util/result.h"

namespace mmlib::models {

/// The five computer-vision architectures evaluated in the paper (Table 2).
enum class Architecture {
  kMobileNetV2,
  kGoogLeNet,
  kResNet18,
  kResNet50,
  kResNet152,
};

/// Stable name, e.g. "MobileNetV2".
std::string_view ArchitectureName(Architecture arch);

/// Parses an architecture name; inverse of ArchitectureName.
Result<Architecture> ArchitectureFromName(std::string_view name);

/// All five architectures in Table 2 order.
const std::vector<Architecture>& AllArchitectures();

/// Build configuration for a zoo model.
///
/// `channel_divisor` scales every channel width, the classifier width, and
/// the input resolution by 1/d, so parameter count and compute scale by
/// roughly 1/d^2 and 1/d^4 respectively. Divisor 1 reproduces the paper's
/// full-size architectures (Table 2 parameter counts); the default divisor 4
/// keeps experiments laptop-sized while preserving every parameter-count
/// *ratio* the paper's results depend on (see DESIGN.md Section 1).
struct ModelConfig {
  Architecture arch = Architecture::kResNet18;
  int64_t channel_divisor = 4;
  int64_t num_classes = 250;  // 1000 / channel_divisor at full scale
  int64_t image_size = 56;    // 224 / channel_divisor at full scale
  uint64_t init_seed = 0x5eed;
};

/// Default laptop-scale configuration (divisor 4).
ModelConfig DefaultConfig(Architecture arch);

/// The paper's full-size configuration (divisor 1, 1000 classes, 224 px).
ModelConfig FullScaleConfig(Architecture arch);

/// Instantiates the architecture with freshly initialized weights drawn
/// deterministically from config.init_seed.
Result<nn::Model> BuildModel(const ModelConfig& config);

/// Instantiates the architecture with the parameters of a snapshot written
/// by nn::Model::SerializeParams, skipping the initial weight draws that the
/// snapshot would overwrite. Fails with Corruption, returning no model, when
/// the snapshot does not fit the architecture (layer or parameter count,
/// name or shape mismatch, truncation, trailing bytes).
Result<nn::Model> BuildModelWithParams(const ModelConfig& config,
                                       const Bytes& params);

/// True for the classifier-head layers — the layers that stay trainable in
/// the paper's *partially updated model version* setting ("only the last
/// fully connected layers", Section 4.1).
bool IsClassifierLayer(const nn::Layer& layer);

/// Freezes everything but the classifier head; returns the number of
/// trainable parameters left (Table 2 "Part. updated" column).
int64_t ApplyPartialUpdateFreeze(nn::Model* model);

/// Reference numbers from the paper's Table 2 (full scale).
struct Table2Row {
  std::string name;
  int64_t params;
  int64_t partially_updated_params;
  double size_mb;
};
const std::vector<Table2Row>& Table2Reference();

}  // namespace mmlib::models

