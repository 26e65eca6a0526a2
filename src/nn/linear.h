#pragma once

#include <memory>
#include <string>

#include "kernels/linear_plan.h"
#include "nn/layer.h"

namespace mmlib::nn {

/// Fully connected layer: y = x W^T + b with input [N, in] and output
/// [N, out]. Weights are Kaiming-uniform initialized from `rng`; a null
/// `rng` leaves them zero and draws nothing (models::BuildModelWithParams).
///
/// Non-trivial shapes run through a kernels::LinearPlan (packed
/// cache-blocked GEMM) in both execution modes; non-deterministic mode only
/// adds the plan's split-K freedom. Tiny shapes (LinearAlgo::kDirect) keep
/// the direct loop of serial dot products in both modes.
class Linear : public Layer {
 public:
  Linear(std::string name, int64_t in_features, int64_t out_features,
         Rng* rng);

  std::string_view type() const override { return "linear"; }

  Result<Tensor> Forward(const std::vector<const Tensor*>& inputs,
                         ExecutionContext* ctx) override;
  Result<std::vector<Tensor>> Backward(
      const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
      ExecutionContext* ctx) override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  /// Plan for the last Forward batch size; refreshed from the PlanCache
  /// when the batch changes. Null until the first Forward.
  std::shared_ptr<const kernels::LinearPlan> plan_;
};

}  // namespace mmlib::nn

