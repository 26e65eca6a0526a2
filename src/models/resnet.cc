#include "models/builders.h"

namespace mmlib::models::internal {

namespace {

/// ResNet basic block (two 3x3 convolutions), used by ResNet-18.
int64_t BasicBlock(BuilderCtx* ctx, const std::string& name, int64_t input,
                   int64_t in_ch, int64_t out_ch, int64_t stride) {
  int64_t node = ConvBnRelu(ctx, name + ".conv1", input, in_ch, out_ch, 3,
                            stride, 1);
  node = ConvBn(ctx, name + ".conv2", node, out_ch, out_ch, 3, 1, 1);

  int64_t shortcut = input;
  if (stride != 1 || in_ch != out_ch) {
    shortcut = ConvBn(ctx, name + ".downsample", input, in_ch, out_ch, 1,
                      stride, 0);
  }
  int64_t add = ctx->model->AddNode(
      std::make_unique<nn::Add>(name + ".add", 2), {node, shortcut});
  return ctx->model->AddNode(std::make_unique<nn::ReLU>(name + ".relu"),
                             {add});
}

/// ResNet bottleneck block (1x1 -> 3x3 -> 1x1), used by ResNet-50/152.
int64_t BottleneckBlock(BuilderCtx* ctx, const std::string& name,
                        int64_t input, int64_t in_ch, int64_t width,
                        int64_t out_ch, int64_t stride) {
  int64_t node = ConvBnRelu(ctx, name + ".conv1", input, in_ch, width, 1, 1,
                            0);
  node = ConvBnRelu(ctx, name + ".conv2", node, width, width, 3, stride, 1);
  node = ConvBn(ctx, name + ".conv3", node, width, out_ch, 1, 1, 0);

  int64_t shortcut = input;
  if (stride != 1 || in_ch != out_ch) {
    shortcut = ConvBn(ctx, name + ".downsample", input, in_ch, out_ch, 1,
                      stride, 0);
  }
  int64_t add = ctx->model->AddNode(
      std::make_unique<nn::Add>(name + ".add", 2), {node, shortcut});
  return ctx->model->AddNode(std::make_unique<nn::ReLU>(name + ".relu"),
                             {add});
}

}  // namespace

Result<nn::Model> BuildResNet(const ModelConfig& config, Rng* rng) {
  bool bottleneck = false;
  int blocks[4];
  switch (config.arch) {
    case Architecture::kResNet18:
      bottleneck = false;
      blocks[0] = 2, blocks[1] = 2, blocks[2] = 2, blocks[3] = 2;
      break;
    case Architecture::kResNet50:
      bottleneck = true;
      blocks[0] = 3, blocks[1] = 4, blocks[2] = 6, blocks[3] = 3;
      break;
    case Architecture::kResNet152:
      bottleneck = true;
      blocks[0] = 3, blocks[1] = 8, blocks[2] = 36, blocks[3] = 3;
      break;
    default:
      return Status::InvalidArgument("BuildResNet: not a ResNet architecture");
  }

  nn::Model model(std::string(ArchitectureName(config.arch)));
  BuilderCtx ctx{&model, rng, config.channel_divisor};

  const int64_t stem = ctx.Ch(64);
  int64_t node = ConvBnRelu(&ctx, "stem", nn::Model::kInputNode, 3, stem, 7,
                            2, 3);
  node = model.AddNode(std::make_unique<nn::MaxPool2d>("stem.pool", 3, 2, 1),
                       {node});

  const int64_t expansion = bottleneck ? 4 : 1;
  int64_t in_ch = stem;
  const int64_t stage_widths[4] = {ctx.Ch(64), ctx.Ch(128), ctx.Ch(256),
                                   ctx.Ch(512)};
  for (int stage = 0; stage < 4; ++stage) {
    const int64_t width = stage_widths[stage];
    const int64_t out_ch = width * expansion;
    for (int b = 0; b < blocks[stage]; ++b) {
      const int64_t stride = (b == 0 && stage > 0) ? 2 : 1;
      const std::string name =
          "layer" + std::to_string(stage + 1) + "." + std::to_string(b);
      if (bottleneck) {
        node = BottleneckBlock(&ctx, name, node, in_ch, width, out_ch,
                               stride);
      } else {
        node = BasicBlock(&ctx, name, node, in_ch, out_ch, stride);
      }
      in_ch = out_ch;
    }
  }

  node = model.AddNode(std::make_unique<nn::GlobalAvgPool>("avgpool"),
                       {node});
  model.AddNode(std::make_unique<nn::Linear>("fc", in_ch, config.num_classes,
                                             rng),
                {node});
  return model;
}

}  // namespace mmlib::models::internal
