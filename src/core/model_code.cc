#include "core/model_code.h"

namespace mmlib::core {

json::Value CodeDescriptorFor(const models::ModelConfig& config) {
  json::Value doc = json::Value::MakeObject();
  doc.Set("architecture", std::string(models::ArchitectureName(config.arch)));
  doc.Set("channel_divisor", config.channel_divisor);
  doc.Set("num_classes", config.num_classes);
  doc.Set("image_size", config.image_size);
  doc.Set("init_seed", static_cast<int64_t>(config.init_seed));
  return doc;
}

Result<models::ModelConfig> ConfigFromCodeDescriptor(const json::Value& doc) {
  models::ModelConfig config;
  MMLIB_ASSIGN_OR_RETURN(std::string name, doc.GetString("architecture"));
  MMLIB_ASSIGN_OR_RETURN(config.arch, models::ArchitectureFromName(name));
  MMLIB_ASSIGN_OR_RETURN(config.channel_divisor,
                         doc.GetInt("channel_divisor"));
  MMLIB_ASSIGN_OR_RETURN(config.num_classes, doc.GetInt("num_classes"));
  MMLIB_ASSIGN_OR_RETURN(config.image_size, doc.GetInt("image_size"));
  MMLIB_ASSIGN_OR_RETURN(int64_t seed, doc.GetInt("init_seed"));
  config.init_seed = static_cast<uint64_t>(seed);
  return config;
}

Result<nn::Model> BuildModelFromCode(const json::Value& doc,
                                     const Bytes& params) {
  MMLIB_ASSIGN_OR_RETURN(models::ModelConfig config,
                         ConfigFromCodeDescriptor(doc));
  return models::BuildModelWithParams(config, params);
}

}  // namespace mmlib::core
