#include "models/zoo.h"

#include "models/builders.h"
#include "util/strings.h"

namespace mmlib::models {

std::string_view ArchitectureName(Architecture arch) {
  switch (arch) {
    case Architecture::kMobileNetV2:
      return "MobileNetV2";
    case Architecture::kGoogLeNet:
      return "GoogLeNet";
    case Architecture::kResNet18:
      return "ResNet-18";
    case Architecture::kResNet50:
      return "ResNet-50";
    case Architecture::kResNet152:
      return "ResNet-152";
  }
  return "unknown";
}

Result<Architecture> ArchitectureFromName(std::string_view name) {
  for (Architecture arch : AllArchitectures()) {
    if (ArchitectureName(arch) == name) {
      return arch;
    }
  }
  return Status::NotFound("unknown architecture: " + std::string(name));
}

const std::vector<Architecture>& AllArchitectures() {
  static const std::vector<Architecture>* all = new std::vector<Architecture>{
      Architecture::kMobileNetV2, Architecture::kGoogLeNet,
      Architecture::kResNet18,    Architecture::kResNet50,
      Architecture::kResNet152,
  };
  return *all;
}

ModelConfig DefaultConfig(Architecture arch) {
  ModelConfig config;
  config.arch = arch;
  return config;
}

ModelConfig FullScaleConfig(Architecture arch) {
  ModelConfig config;
  config.arch = arch;
  config.channel_divisor = 1;
  config.num_classes = 1000;
  config.image_size = 224;
  return config;
}

namespace {

/// Builds the architecture, drawing initial weights from `rng` (zero weights
/// and no draws when `rng` is null).
Result<nn::Model> BuildArchitecture(const ModelConfig& config, Rng* rng) {
  switch (config.arch) {
    case Architecture::kMobileNetV2:
      return internal::BuildMobileNetV2(config, rng);
    case Architecture::kGoogLeNet:
      return internal::BuildGoogLeNet(config, rng);
    case Architecture::kResNet18:
    case Architecture::kResNet50:
    case Architecture::kResNet152:
      return internal::BuildResNet(config, rng);
  }
  return Status::InvalidArgument("unknown architecture");
}

}  // namespace

Result<nn::Model> BuildModel(const ModelConfig& config) {
  Rng rng(config.init_seed);
  return BuildArchitecture(config, &rng);
}

Result<nn::Model> BuildModelWithParams(const ModelConfig& config,
                                       const Bytes& params) {
  MMLIB_ASSIGN_OR_RETURN(nn::Model model, BuildArchitecture(config, nullptr));
  MMLIB_RETURN_IF_ERROR(model.LoadParams(params));
  return model;
}

bool IsClassifierLayer(const nn::Layer& layer) {
  return layer.name() == "fc" || StartsWith(layer.name(), "classifier.");
}

int64_t ApplyPartialUpdateFreeze(nn::Model* model) {
  model->SetTrainableWhere(
      [](const nn::Layer& layer) { return IsClassifierLayer(layer); });
  return model->TrainableParamCount();
}

const std::vector<Table2Row>& Table2Reference() {
  static const std::vector<Table2Row>* rows = new std::vector<Table2Row>{
      {"MobileNetV2", 3504872, 1281000, 14.3},
      {"GoogLeNet", 6624904, 1025000, 26.7},
      {"ResNet-18", 11689512, 513000, 46.8},
      {"ResNet-50", 25557032, 2049000, 102.5},
      {"ResNet-152", 60192808, 2049000, 241.7},
  };
  return *rows;
}

}  // namespace mmlib::models
