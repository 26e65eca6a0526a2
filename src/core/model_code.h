#pragma once

#include "json/json.h"
#include "models/zoo.h"
#include "nn/model.h"
#include "util/result.h"

namespace mmlib::core {

/// mmlib saves "the model architecture by its implementation in code"
/// (paper Section 3.1). In this reproduction the unit of model code is a
/// *code descriptor*: a JSON document naming a zoo architecture and its
/// build configuration. Recovery replays it through
/// models::BuildModelWithParams, which builds the architecture without the
/// initial weight draws and loads the saved parameters into it. The
/// substitution (source text -> replayable descriptor) is documented in
/// DESIGN.md Section 1.

/// Serializes a build configuration into a code descriptor document.
json::Value CodeDescriptorFor(const models::ModelConfig& config);

/// Parses a code descriptor back into a build configuration.
Result<models::ModelConfig> ConfigFromCodeDescriptor(const json::Value& doc);

/// Instantiates the model a code descriptor names with the parameters of a
/// snapshot (models::BuildModelWithParams); no initial weights are drawn.
Result<nn::Model> BuildModelFromCode(const json::Value& doc,
                                     const Bytes& params);

}  // namespace mmlib::core

