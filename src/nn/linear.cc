#include "nn/linear.h"

#include "kernels/plan_cache.h"
#include "tensor/validate.h"
#include "util/thread_pool.h"
#include <cmath>

namespace mmlib::nn {

namespace {

/// Chunk caps of the direct loop: constants (never the thread count) so
/// chunk boundaries — and with them the fixed-order gradient reduction —
/// are identical for every pool size.
constexpr int64_t kMaxForwardChunks = 64;
constexpr int64_t kMaxBackwardChunks = 8;

}  // namespace

Linear::Linear(std::string name, int64_t in_features, int64_t out_features,
               Rng* rng)
    : Layer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(in_features));
  auto init = [&](Shape shape) {
    return rng == nullptr ? Tensor::Zeros(std::move(shape))
                          : Tensor::Uniform(std::move(shape), -bound, bound,
                                            rng);
  };
  AddParam("weight", init(Shape{out_features, in_features}));
  AddParam("bias", init(Shape{out_features}));
}

Result<Tensor> Linear::Forward(const std::vector<const Tensor*>& inputs,
                               ExecutionContext* ctx) {
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Tensor& x = *inputs[0];
  if (x.shape().rank() != 2 || x.shape().dim(1) != in_features_) {
    return Status::InvalidArgument("linear " + name_ + ": bad input shape " +
                                   x.shape().ToString());
  }
  cached_input_ = x;
  const int64_t batch = x.shape().dim(0);
  if (!plan_ || plan_->batch() != batch) {
    plan_ = kernels::PlanCache::Instance().GetLinearPlan(batch, in_features_,
                                                         out_features_);
  }
  Tensor y(Shape{batch, out_features_});
  const float* weight = params_[0].value.data();
  const float* bias = params_[1].value.data();

  // Both execution modes run the plan's GEMM (a non-deterministic context
  // only hands it a split-K scheduler); tiny shapes take the direct loop.
  if (plan_->algo() == kernels::LinearAlgo::kGemm) {
    plan_->Forward(x.data(), weight, bias, y.data(), ctx->pool(),
                   ctx->scheduler());
    return y;
  }

  // Shard over (sample, output row): every task writes exactly one output
  // element via a complete serial dot product, so results are
  // bit-identical for any chunking and any thread count.
  const int64_t tasks = batch * out_features_;
  const int64_t grain = util::GrainForMaxChunks(tasks, kMaxForwardChunks);
  util::ParallelFor(
      ctx->pool(), tasks, grain,
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        for (int64_t t = begin; t < end; ++t) {
          const int64_t n = t / out_features_;
          const int64_t o = t % out_features_;
          y.data()[n * out_features_ + o] =
              bias[o] + DotSerial(weight + o * in_features_,
                                  x.data() + n * in_features_,
                                  static_cast<size_t>(in_features_));
        }
      });
  return y;
}

Result<std::vector<Tensor>> Linear::Backward(const Tensor& grad_output,
                                             ExecutionContext* ctx) {
  if (plan_ == nullptr) {
    return Status::InvalidArgument("linear " + name_ +
                                   ": Backward called before Forward");
  }
  const int64_t batch = plan_->batch();
  MMLIB_RETURN_IF_ERROR(check::ValidateShapesMatch(
      grad_output.shape(), Shape{batch, out_features_},
      "linear " + name_ + " grad_output"));
  const float* weight = params_[0].value.data();
  float* grad_weight = params_[0].grad.data();
  float* grad_bias = params_[1].grad.data();
  Tensor grad_input(cached_input_.shape());
  std::vector<Tensor> grads;

  if (plan_->algo() == kernels::LinearAlgo::kGemm) {
    plan_->Backward(cached_input_.data(), weight, grad_output.data(),
                    grad_input.data(), grad_weight, grad_bias, ctx->pool(),
                    ctx->scheduler());
    grads.push_back(std::move(grad_input));
    return grads;
  }

  const size_t gw_numel = static_cast<size_t>(params_[0].grad.numel());
  const size_t gb_numel = static_cast<size_t>(params_[1].grad.numel());

  // Shard over samples. grad_input rows are disjoint per sample; weight and
  // bias gradients go into per-chunk scratch buffers reduced in fixed
  // chunk-index order below, so the result never depends on the pool size.
  const int64_t grain = util::GrainForMaxChunks(batch, kMaxBackwardChunks);
  const size_t num_chunks = static_cast<size_t>(util::NumChunks(batch, grain));
  const size_t scratch_stride = gw_numel + gb_numel;
  std::vector<float> grad_scratch(num_chunks * scratch_stride, 0.0f);
  util::ParallelFor(
      ctx->pool(), batch, grain,
      [&](int64_t n_begin, int64_t n_end, size_t chunk_index) {
        float* gw_chunk = grad_scratch.data() + chunk_index * scratch_stride;
        float* gb_chunk = gw_chunk + gw_numel;
        for (int64_t n = n_begin; n < n_end; ++n) {
          const float* gout = grad_output.data() + n * out_features_;
          const float* row = cached_input_.data() + n * in_features_;
          float* gin = grad_input.data() + n * in_features_;
          for (int64_t o = 0; o < out_features_; ++o) {
            const float g = gout[o];
            gb_chunk[o] += g;
            const float* wrow = weight + o * in_features_;
            float* gwrow = gw_chunk + o * in_features_;
            for (int64_t i = 0; i < in_features_; ++i) {
              gwrow[i] += g * row[i];
              gin[i] += g * wrow[i];
            }
          }
        }
      });

  // Fixed-order reduction; chunk boundaries are thread-count independent,
  // so this sum is bit-exact for every pool size.
  for (size_t c = 0; c < num_chunks; ++c) {
    const float* gw_chunk = grad_scratch.data() + c * scratch_stride;
    const float* gb_chunk = gw_chunk + gw_numel;
    for (size_t j = 0; j < gw_numel; ++j) {
      grad_weight[j] += gw_chunk[j];
    }
    for (size_t j = 0; j < gb_numel; ++j) {
      grad_bias[j] += gb_chunk[j];
    }
  }

  grads.push_back(std::move(grad_input));
  return grads;
}

}  // namespace mmlib::nn
