#include "models/builders.h"

namespace mmlib::models::internal {

namespace {

/// GoogLeNet inception block: four parallel branches (1x1, 1x1->3x3,
/// 1x1->3x3, pool->1x1) concatenated along channels. Channel widths are
/// full-size values, scaled inside. Follows the BN-inception variant used by
/// torchvision (5x5 branch implemented as 3x3).
int64_t Inception(BuilderCtx* ctx, const std::string& name, int64_t input,
                  int64_t in_ch, int64_t ch1x1, int64_t ch3x3red,
                  int64_t ch3x3, int64_t ch5x5red, int64_t ch5x5,
                  int64_t pool_proj, int64_t* out_ch) {
  const int64_t b1_ch = ctx->Ch(ch1x1);
  const int64_t b2r_ch = ctx->Ch(ch3x3red);
  const int64_t b2_ch = ctx->Ch(ch3x3);
  const int64_t b3r_ch = ctx->Ch(ch5x5red);
  const int64_t b3_ch = ctx->Ch(ch5x5);
  const int64_t b4_ch = ctx->Ch(pool_proj);

  const int64_t branch1 =
      ConvBnRelu(ctx, name + ".branch1", input, in_ch, b1_ch, 1, 1, 0);

  int64_t branch2 =
      ConvBnRelu(ctx, name + ".branch2.reduce", input, in_ch, b2r_ch, 1, 1, 0);
  branch2 = ConvBnRelu(ctx, name + ".branch2.conv", branch2, b2r_ch, b2_ch, 3,
                       1, 1);

  int64_t branch3 =
      ConvBnRelu(ctx, name + ".branch3.reduce", input, in_ch, b3r_ch, 1, 1, 0);
  branch3 = ConvBnRelu(ctx, name + ".branch3.conv", branch3, b3r_ch, b3_ch, 3,
                       1, 1);

  int64_t branch4 = ctx->model->AddNode(
      std::make_unique<nn::MaxPool2d>(name + ".branch4.pool", 3, 1, 1),
      {input});
  branch4 = ConvBnRelu(ctx, name + ".branch4.proj", branch4, in_ch, b4_ch, 1,
                       1, 0);

  *out_ch = b1_ch + b2_ch + b3_ch + b4_ch;
  return ctx->model->AddNode(
      std::make_unique<nn::Concat>(name + ".concat", 4),
      {branch1, branch2, branch3, branch4});
}

}  // namespace

Result<nn::Model> BuildGoogLeNet(const ModelConfig& config, Rng* rng) {
  if (config.arch != Architecture::kGoogLeNet) {
    return Status::InvalidArgument("BuildGoogLeNet: wrong architecture");
  }
  nn::Model model(std::string(ArchitectureName(config.arch)));
  BuilderCtx ctx{&model, rng, config.channel_divisor};

  int64_t node = ConvBnRelu(&ctx, "conv1", nn::Model::kInputNode, 3,
                            ctx.Ch(64), 7, 2, 3);
  node = model.AddNode(std::make_unique<nn::MaxPool2d>("maxpool1", 3, 2, 1),
                       {node});
  node = ConvBnRelu(&ctx, "conv2", node, ctx.Ch(64), ctx.Ch(64), 1, 1, 0);
  node = ConvBnRelu(&ctx, "conv3", node, ctx.Ch(64), ctx.Ch(192), 3, 1, 1);
  node = model.AddNode(std::make_unique<nn::MaxPool2d>("maxpool2", 3, 2, 1),
                       {node});

  int64_t channels = ctx.Ch(192);
  node = Inception(&ctx, "inception3a", node, channels, 64, 96, 128, 16, 32,
                   32, &channels);
  node = Inception(&ctx, "inception3b", node, channels, 128, 128, 192, 32, 96,
                   64, &channels);
  node = model.AddNode(std::make_unique<nn::MaxPool2d>("maxpool3", 3, 2, 1),
                       {node});
  node = Inception(&ctx, "inception4a", node, channels, 192, 96, 208, 16, 48,
                   64, &channels);
  node = Inception(&ctx, "inception4b", node, channels, 160, 112, 224, 24, 64,
                   64, &channels);
  node = Inception(&ctx, "inception4c", node, channels, 128, 128, 256, 24, 64,
                   64, &channels);
  node = Inception(&ctx, "inception4d", node, channels, 112, 144, 288, 32, 64,
                   64, &channels);
  node = Inception(&ctx, "inception4e", node, channels, 256, 160, 320, 32,
                   128, 128, &channels);
  node = model.AddNode(std::make_unique<nn::MaxPool2d>("maxpool4", 2, 2, 0),
                       {node});
  node = Inception(&ctx, "inception5a", node, channels, 256, 160, 320, 32,
                   128, 128, &channels);
  node = Inception(&ctx, "inception5b", node, channels, 384, 192, 384, 48,
                   128, 128, &channels);

  node = model.AddNode(std::make_unique<nn::GlobalAvgPool>("avgpool"),
                       {node});
  node = model.AddNode(std::make_unique<nn::Dropout>("dropout", 0.2f),
                       {node});
  model.AddNode(std::make_unique<nn::Linear>("fc", channels,
                                             config.num_classes, rng),
                {node});
  return model;
}

}  // namespace mmlib::models::internal
