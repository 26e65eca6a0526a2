#include "models/builders.h"

namespace mmlib::models::internal {

namespace {

/// MobileNetV2 inverted residual block: 1x1 expand -> 3x3 depthwise ->
/// 1x1 project, with a residual connection when stride is 1 and the channel
/// count is unchanged.
int64_t InvertedResidual(BuilderCtx* ctx, const std::string& name,
                         int64_t input, int64_t in_ch, int64_t out_ch,
                         int64_t stride, int64_t expand_ratio) {
  const int64_t hidden = in_ch * expand_ratio;
  int64_t node = input;
  if (expand_ratio != 1) {
    node = ConvBnRelu(ctx, name + ".expand", node, in_ch, hidden, 1, 1, 0,
                      /*groups=*/1, /*relu_clip=*/6.0f);
  }
  node = ConvBnRelu(ctx, name + ".depthwise", node, hidden, hidden, 3, stride,
                    1, /*groups=*/hidden, /*relu_clip=*/6.0f);
  node = ConvBn(ctx, name + ".project", node, hidden, out_ch, 1, 1, 0);
  if (stride == 1 && in_ch == out_ch) {
    node = ctx->model->AddNode(
        std::make_unique<nn::Add>(name + ".add", 2), {node, input});
  }
  return node;
}

}  // namespace

Result<nn::Model> BuildMobileNetV2(const ModelConfig& config, Rng* rng) {
  if (config.arch != Architecture::kMobileNetV2) {
    return Status::InvalidArgument("BuildMobileNetV2: wrong architecture");
  }
  nn::Model model(std::string(ArchitectureName(config.arch)));
  BuilderCtx ctx{&model, rng, config.channel_divisor};

  // Inverted residual settings: expansion t, full-width channels c, repeat
  // count n, first stride s (Sandler et al. 2018, Table 2).
  struct Setting {
    int64_t t, c, n, s;
  };
  static constexpr Setting kSettings[] = {
      {1, 16, 1, 1}, {6, 24, 2, 2},  {6, 32, 3, 2}, {6, 64, 4, 2},
      {6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
  };

  int64_t in_ch = ctx.Ch(32);
  int64_t node = ConvBnRelu(&ctx, "stem", nn::Model::kInputNode, 3, in_ch, 3,
                            2, 1, /*groups=*/1, /*relu_clip=*/6.0f);
  int block_index = 0;
  for (const Setting& s : kSettings) {
    const int64_t out_ch = ctx.Ch(s.c);
    for (int64_t i = 0; i < s.n; ++i) {
      const int64_t stride = i == 0 ? s.s : 1;
      node = InvertedResidual(&ctx,
                              "features." + std::to_string(block_index),
                              node, in_ch, out_ch, stride, s.t);
      in_ch = out_ch;
      ++block_index;
    }
  }
  const int64_t last_ch = ctx.Ch(1280);
  node = ConvBnRelu(&ctx, "head", node, in_ch, last_ch, 1, 1, 0,
                    /*groups=*/1, /*relu_clip=*/6.0f);
  node = model.AddNode(std::make_unique<nn::GlobalAvgPool>("avgpool"),
                       {node});
  node = model.AddNode(std::make_unique<nn::Dropout>("classifier.dropout",
                                                     0.2f),
                       {node});
  model.AddNode(std::make_unique<nn::Linear>("classifier.fc", last_ch,
                                             config.num_classes, rng),
                {node});
  return model;
}

}  // namespace mmlib::models::internal
