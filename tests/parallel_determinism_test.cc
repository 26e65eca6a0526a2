#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "compress/chunked.h"
#include "core/train_service.h"
#include "models/zoo.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "util/thread_pool.h"

namespace mmlib {
namespace {

/// The deterministic-chunking contract, end to end: every parallelized
/// component of the library must produce bit-identical results whether its
/// pool runs 1 thread or 8 (DESIGN.md "Threading model"). This is what
/// keeps deterministic training reproducible across machines with
/// different core counts (paper Sections 2.3/4.5, Figure 13).

constexpr size_t kPoolSizes[] = {1, 2, 8};

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

struct LayerRunResult {
  Tensor output;
  Tensor grad_input;
  std::vector<Tensor> param_grads;
};

/// Runs one deterministic forward+backward of a freshly built layer on a
/// pool of `threads` threads.
template <typename MakeLayer>
LayerRunResult RunLayer(const MakeLayer& make_layer, const Tensor& input,
                        size_t threads) {
  util::ThreadPool pool(threads);
  std::unique_ptr<nn::Layer> layer = make_layer();
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(7);
  ctx.set_pool(&pool);

  LayerRunResult result;
  result.output = layer->Forward({&input}, &ctx).value();
  Tensor grad_out(result.output.shape());
  grad_out.Fill(1.0f);
  layer->ZeroGrad();
  std::vector<Tensor> grads = layer->Backward({&input}, grad_out, &ctx).value();
  result.grad_input = std::move(grads[0]);
  for (const nn::Param& p : layer->params()) {
    result.param_grads.push_back(p.grad);
  }
  return result;
}

template <typename MakeLayer>
void ExpectLayerInvariantAcrossPools(const MakeLayer& make_layer,
                                     const Tensor& input) {
  const LayerRunResult reference = RunLayer(make_layer, input, 1);
  for (size_t threads : kPoolSizes) {
    const LayerRunResult run = RunLayer(make_layer, input, threads);
    EXPECT_TRUE(BitIdentical(run.output, reference.output))
        << "forward output diverged at " << threads << " threads";
    EXPECT_TRUE(BitIdentical(run.grad_input, reference.grad_input))
        << "input gradient diverged at " << threads << " threads";
    ASSERT_EQ(run.param_grads.size(), reference.param_grads.size());
    for (size_t i = 0; i < run.param_grads.size(); ++i) {
      EXPECT_TRUE(
          BitIdentical(run.param_grads[i], reference.param_grads[i]))
          << "param grad " << i << " diverged at " << threads << " threads";
    }
  }
}

Tensor RandomInput(Shape shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Gaussian(std::move(shape), 1.0f, &rng);
}

TEST(ParallelDeterminismTest, Conv2dSpatialBitIdenticalAcrossPools) {
  // 3x3 convolution: deterministic mode uses compensated summation, whose
  // per-chunk compensation state is the hardest case for chunked backward.
  auto make = [] {
    Rng rng(11);
    return std::make_unique<nn::Conv2d>("c3", 4, 6, 3, 1, 1, 1, &rng);
  };
  ExpectLayerInvariantAcrossPools(make, RandomInput({5, 4, 9, 9}, 21));
}

TEST(ParallelDeterminismTest, Conv2dPointwiseBitIdenticalAcrossPools) {
  auto make = [] {
    Rng rng(12);
    return std::make_unique<nn::Conv2d>("c1", 8, 8, 1, 1, 0, 1, &rng);
  };
  ExpectLayerInvariantAcrossPools(make, RandomInput({6, 8, 5, 5}, 22));
}

TEST(ParallelDeterminismTest, Conv2dDepthwiseBitIdenticalAcrossPools) {
  auto make = [] {
    Rng rng(13);
    return std::make_unique<nn::Conv2d>("dw", 8, 8, 3, 2, 1, 8, &rng);
  };
  ExpectLayerInvariantAcrossPools(make, RandomInput({3, 8, 11, 11}, 23));
}

TEST(ParallelDeterminismTest, LinearBitIdenticalAcrossPools) {
  auto make = [] {
    Rng rng(14);
    return std::make_unique<nn::Linear>("fc", 37, 19, &rng);
  };
  ExpectLayerInvariantAcrossPools(make, RandomInput({9, 37}, 24));
}

TEST(ParallelDeterminismTest, MerkleRootIdenticalAcrossPools) {
  models::ModelConfig config =
      models::DefaultConfig(models::Architecture::kMobileNetV2);
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 10;
  config.init_seed = 5;
  nn::Model model = models::BuildModel(config).value();

  util::ThreadPool serial(1);
  const Digest reference = model.BuildMerkleTree(&serial).value().root();
  for (size_t threads : kPoolSizes) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(model.BuildMerkleTree(&pool).value().root(), reference)
        << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, ChunkedFrameBytesIdenticalAcrossPools) {
  // Compressible pseudo-random payload spanning many chunks.
  Bytes payload(200 * 1024);
  Rng rng(99);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(rng.NextBelow(17));
  }
  constexpr size_t kChunkSize = 16 * 1024;

  util::ThreadPool serial(1);
  const Bytes reference =
      ChunkedFrame(payload, CodecKind::kLz77, kChunkSize, &serial).value();
  for (size_t threads : kPoolSizes) {
    util::ThreadPool pool(threads);
    const Bytes frame =
        ChunkedFrame(payload, CodecKind::kLz77, kChunkSize, &pool).value();
    EXPECT_EQ(frame, reference) << threads << " threads";
    EXPECT_EQ(ChunkedUnframe(frame, &pool).value(), payload)
        << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, ChunkedUnframeDetectsTamper) {
  Bytes payload(64 * 1024, 0xab);
  const Bytes frame =
      ChunkedFrame(payload, CodecKind::kIdentity, 16 * 1024).value();
  Bytes tampered = frame;
  tampered[tampered.size() - 5] ^= 0x40;  // inside the last chunk's payload
  EXPECT_EQ(ChunkedUnframe(tampered).status().code(),
            StatusCode::kCorruption);
}

TEST(ParallelDeterminismTest, AuditedTrainingIdenticalAcrossPools) {
  // The Fig. 13 replay guarantee under parallelism: a deterministic
  // training run audited at layer granularity must replay bit-for-bit on
  // pools of any size.
  core::TrainConfig config;
  config.epochs = 1;
  config.max_batches_per_epoch = 2;
  config.seed = 77;
  config.loader.batch_size = 4;
  config.loader.image_size = 28;
  config.loader.num_classes = 10;
  config.loader.seed = 77;
  data::SyntheticImageDataset dataset(data::PaperDatasetId::kCocoOutdoor512,
                                      4096);

  models::ModelConfig model_config =
      models::DefaultConfig(models::Architecture::kMobileNetV2);
  model_config.channel_divisor = 8;
  model_config.image_size = 28;
  model_config.num_classes = 10;
  model_config.init_seed = 1;

  core::DeterminismAuditor auditor;
  Digest params_hash;
  for (size_t threads : kPoolSizes) {
    util::ThreadPool pool(threads);
    nn::Model model = models::BuildModel(model_config).value();
    core::ImageTrainService service(&dataset, config);
    service.set_thread_pool(&pool);
    service.set_determinism_auditor(&auditor);
    // Runs after the first replay the reference trace; any layer whose
    // forward output or input gradient changed with the pool size fails
    // here with Corruption.
    auto times = service.Train(&model, /*deterministic=*/true, 0);
    ASSERT_TRUE(times.ok()) << threads << " threads: " << times.status();
    if (threads == kPoolSizes[0]) {
      params_hash = model.ParamsHash();
    } else {
      EXPECT_EQ(model.ParamsHash(), params_hash) << threads << " threads";
    }
  }
  EXPECT_EQ(auditor.completed_runs(), 3u);
}

}  // namespace
}  // namespace mmlib
