#include "tfm/models/segformer.h"

#include <algorithm>
#include <cmath>

#include "tfm/probe.h"
#include "util/contracts.h"

namespace gqa::tfm {

namespace {

/// Nearest-neighbour upsample of one stage's head tokens {h·w, d} onto
/// the {oh·ow, 4d} fused token matrix, stage s's columns [s·d, (s+1)·d):
/// write_row(src, dst) fills the d codes of each output pixel from its
/// source token row, so the copy (fp) or requantization (int) happens in
/// the same pass.
template <typename T, typename WriteRow>
void upsample_into_columns(const T& proj, int h, int w, int s, T& fused,
                           int oh, int ow, const WriteRow& write_row) {
  const auto d = static_cast<std::size_t>(proj.shape()[1]);
  GQA_EXPECTS(proj.shape()[0] == h * w && fused.shape()[0] == oh * ow &&
              static_cast<std::size_t>(fused.shape()[1]) == 4 * d);
  const auto* src = proj.data().data();
  auto* dst = fused.data().data() + static_cast<std::size_t>(s) * d;
  for (int oy = 0; oy < oh; ++oy) {
    const int iy = oy * h / oh;
    for (int ox = 0; ox < ow; ++ox) {
      const int ix = ox * w / ow;
      write_row(src + static_cast<std::size_t>(iy * w + ix) * d, dst, d);
      dst += 4 * d;
    }
  }
}

}  // namespace

SegformerB0Like::SegformerB0Like(const SegformerConfig& config)
    : config_(config) {
  GQA_EXPECTS(config.dims.size() == 4 && config.heads.size() == 4 &&
              config.sr_ratios.size() == 4 && config.depths.size() == 4);
  GQA_EXPECTS(config.image_size % 32 == 0 || config.image_size % 16 == 0);
  Rng rng(config.seed);

  int in_ch = config.in_channels;
  for (int s = 0; s < 4; ++s) {
    Stage stage;
    const int dim = config.dims[static_cast<std::size_t>(s)];
    // Overlapped patch embedding: 7x7 stride 4 for stage 0, 3x3 stride 2
    // afterwards (Segformer design).
    if (s == 0) {
      stage.patch_embed = std::make_unique<Conv2d>(in_ch, dim, 7, 4, 3, rng);
    } else {
      stage.patch_embed = std::make_unique<Conv2d>(in_ch, dim, 3, 2, 1, rng);
    }
    stage.embed_norm = std::make_unique<LayerNorm>(dim, rng);
    for (int b = 0; b < config.depths[static_cast<std::size_t>(s)]; ++b) {
      Block block;
      block.ln1 = std::make_unique<LayerNorm>(dim, rng);
      block.attn = std::make_unique<AttentionSR>(
          dim, config.heads[static_cast<std::size_t>(s)],
          config.sr_ratios[static_cast<std::size_t>(s)], rng);
      block.ln2 = std::make_unique<LayerNorm>(dim, rng);
      block.ffn = std::make_unique<MixFfn>(dim, dim * config.mlp_ratio, rng);
      stage.blocks.push_back(std::move(block));
    }
    stage.out_norm = std::make_unique<LayerNorm>(dim, rng);
    stages_.push_back(std::move(stage));
    in_ch = dim;
  }

  for (int s = 0; s < 4; ++s) {
    head_linears_.push_back(std::make_unique<Linear>(
        config.dims[static_cast<std::size_t>(s)], config.decoder_dim, rng));
  }
  head_fuse_ = std::make_unique<Linear>(4 * config.decoder_dim,
                                        config.decoder_dim, rng);
  head_classifier_ =
      std::make_unique<Linear>(config.decoder_dim, config.num_classes, rng);
  head_rq_.resize(4);
}

Tensor SegformerB0Like::penultimate_fp(const Tensor& image,
                                       const ExecContext& ctx) const {
  GQA_EXPECTS(image.shape().rank() == 3 &&
              image.shape()[0] == config_.in_channels);
  Tensor x = image;
  std::vector<HeadInput<Tensor>> features;  // each stage's normed tokens
  features.reserve(stages_.size());
  for (const Stage& stage : stages_) {
    Tensor map = stage.patch_embed->forward_fp(x, ctx);
    if (&stage != &stages_.front()) ws_release(ctx.ws, std::move(x));
    const int h = map.shape()[1];
    const int w = map.shape()[2];
    Tensor map_tokens = to_tokens(map, ctx.ws);
    ws_release(ctx.ws, std::move(map));
    Tensor tokens = stage.embed_norm->forward_fp(map_tokens, ctx);
    ws_release(ctx.ws, std::move(map_tokens));
    for (const Block& block : stage.blocks) {
      Tensor n1 = block.ln1->forward_fp(tokens, ctx);
      Tensor a = block.attn->forward_fp(n1, h, w, ctx);
      ws_release(ctx.ws, std::move(n1));
      Tensor sum1 = block.add1.forward_fp(tokens, a, ctx);
      ws_release(ctx.ws, std::move(a));
      ws_release(ctx.ws, std::move(tokens));
      tokens = std::move(sum1);
      Tensor n2 = block.ln2->forward_fp(tokens, ctx);
      Tensor f = block.ffn->forward_fp(n2, h, w, ctx);
      ws_release(ctx.ws, std::move(n2));
      Tensor sum2 = block.add2.forward_fp(tokens, f, ctx);
      ws_release(ctx.ws, std::move(f));
      ws_release(ctx.ws, std::move(tokens));
      tokens = std::move(sum2);
    }
    Tensor normed = stage.out_norm->forward_fp(tokens, ctx);
    ws_release(ctx.ws, std::move(tokens));
    if (&stage != &stages_.back()) x = from_tokens(normed, h, w, ctx.ws);
    features.push_back({std::move(normed), h, w});
  }

  // Decode head at 1/4 resolution.
  const int oh = features[0].h;
  const int ow = features[0].w;
  Tensor fused = ws_tensor(ctx.ws, Shape{oh * ow, 4 * config_.decoder_dim});
  for (int s = 0; s < 4; ++s) {
    HeadInput<Tensor>& feat = features[static_cast<std::size_t>(s)];
    Tensor proj = head_linears_[static_cast<std::size_t>(s)]->forward_fp(
        feat.tokens, ctx);
    ws_release(ctx.ws, std::move(feat.tokens));
    if (ctx.calibrating) head_obs_.observe(std::span<const float>(proj.data()));
    upsample_into_columns(proj, feat.h, feat.w, s, fused, oh, ow,
                          [](const float* src, float* dst, std::size_t d) {
                            std::copy_n(src, d, dst);
                          });
    ws_release(ctx.ws, std::move(proj));
  }
  Tensor y = head_fuse_->forward_fp(fused, ctx);
  ws_release(ctx.ws, std::move(fused));
  for (float& v : y.data()) v = std::max(v, 0.0F);  // head ReLU
  return y;
}

Tensor SegformerB0Like::forward_fp(const Tensor& image, ThreadPool* pool,
                                   Workspace* ws) const {
  return forward_fp(image, ExecContext{pool, ws});
}

Tensor SegformerB0Like::forward_fp(const Tensor& image,
                                   const ExecContext& ctx) const {
  Tensor y = penultimate_fp(image, ctx);
  const int side = config_.image_size / 4;
  Tensor logits = head_classifier_->forward_fp(y, ctx);
  ws_release(ctx.ws, std::move(y));
  Tensor out = from_tokens(logits, side, side);
  ws_release(ctx.ws, std::move(logits));
  return out;
}

void SegformerB0Like::train_classifier(
    const std::vector<Tensor>& images,
    const std::vector<std::vector<int>>& quarter_labels, int epochs,
    double learning_rate) {
  GQA_EXPECTS(images.size() == quarter_labels.size() && !images.empty());
  std::vector<Tensor> features;
  features.reserve(images.size());
  for (const Tensor& image : images) features.push_back(penultimate_fp(image));
  (void)train_softmax_probe(
      features, quarter_labels, config_.num_classes,
      std::span<float>(head_classifier_->weights().data()),
      std::span<float>(head_classifier_->bias().data()), epochs, learning_rate,
      config_.seed ^ 0x7EA1);
}

void SegformerB0Like::calibrate(const Tensor& image) {
  input_obs_.observe(std::span<const float>(image.data()));
  (void)forward_fp(image, ExecContext{.calibrating = true});
}

void SegformerB0Like::freeze() {
  GQA_EXPECTS_MSG(!input_obs_.empty(), "freeze() requires prior calibration");
  const QuantPolicy policy;
  input_qp_ = input_obs_.make_po2(policy.act_bits);
  QuantParams qp = input_qp_;
  std::vector<QuantParams> feature_qps;
  for (Stage& stage : stages_) {
    qp = stage.patch_embed->freeze(qp, policy);
    qp = stage.embed_norm->freeze(qp, policy);
    stage.token_qp = qp;
    for (Block& block : stage.blocks) {
      const QuantParams ln1_qp = block.ln1->freeze(qp, policy);
      const QuantParams attn_qp = block.attn->freeze(ln1_qp, policy);
      qp = block.add1.freeze(qp, attn_qp, policy);
      const QuantParams ln2_qp = block.ln2->freeze(qp, policy);
      const QuantParams ffn_qp = block.ffn->freeze(ln2_qp, policy);
      qp = block.add2.freeze(qp, ffn_qp, policy);
    }
    qp = stage.out_norm->freeze(qp, policy);
    feature_qps.push_back(qp);
  }

  const QuantPolicy policy_head;
  head_qp_ = head_obs_.make_po2(policy_head.act_bits);
  QuantParams fused_qp = head_qp_;
  for (int s = 0; s < 4; ++s) {
    const QuantParams proj_qp = head_linears_[static_cast<std::size_t>(s)]
                                    ->freeze(feature_qps[static_cast<std::size_t>(s)],
                                             policy_head);
    head_rq_[static_cast<std::size_t>(s)] =
        CodeTable(proj_qp, Requantizer(proj_qp.scale, head_qp_));
  }
  QuantParams y_qp = head_fuse_->freeze(fused_qp, policy_head);
  (void)head_classifier_->freeze(y_qp, policy_head);
  frozen_ = true;
}

QTensor SegformerB0Like::forward_int(const Tensor& image,
                                     const NonlinearProvider& nl,
                                     ThreadPool* pool, Workspace* ws) const {
  GQA_EXPECTS_MSG(frozen_, "forward_int() requires freeze()");
  const ExecContext ctx{pool, ws};
  QTensor x = QTensor::quantize(image, input_qp_);
  std::vector<HeadInput<QTensor>> features;  // each stage's normed tokens
  features.reserve(stages_.size());
  for (const Stage& stage : stages_) {
    QTensor map = stage.patch_embed->forward_int(x, ctx);
    ws_release(ctx.ws, std::move(x));
    const int h = map.shape()[1];
    const int w = map.shape()[2];
    QTensor map_tokens = to_tokens(map, ctx.ws);
    ws_release(ctx.ws, std::move(map));
    QTensor tokens = stage.embed_norm->forward_int(map_tokens, nl, ctx);
    ws_release(ctx.ws, std::move(map_tokens));
    for (const Block& block : stage.blocks) {
      QTensor n1 = block.ln1->forward_int(tokens, nl, ctx);
      QTensor a = block.attn->forward_int(n1, h, w, nl, ctx);
      ws_release(ctx.ws, std::move(n1));
      QTensor sum1 = block.add1.forward_int(tokens, a, ctx);
      ws_release(ctx.ws, std::move(a));
      ws_release(ctx.ws, std::move(tokens));
      tokens = std::move(sum1);
      QTensor n2 = block.ln2->forward_int(tokens, nl, ctx);
      QTensor f = block.ffn->forward_int(n2, h, w, nl, ctx);
      ws_release(ctx.ws, std::move(n2));
      QTensor sum2 = block.add2.forward_int(tokens, f, ctx);
      ws_release(ctx.ws, std::move(f));
      ws_release(ctx.ws, std::move(tokens));
      tokens = std::move(sum2);
    }
    QTensor normed = stage.out_norm->forward_int(tokens, nl, ctx);
    ws_release(ctx.ws, std::move(tokens));
    if (&stage != &stages_.back()) x = from_tokens(normed, h, w, ctx.ws);
    features.push_back({std::move(normed), h, w});
  }

  const int oh = features[0].h;
  const int ow = features[0].w;
  QTensor fused = ws_qtensor(ctx.ws, Shape{oh * ow, 4 * config_.decoder_dim},
                             head_qp_);
  for (int s = 0; s < 4; ++s) {
    HeadInput<QTensor>& feat = features[static_cast<std::size_t>(s)];
    QTensor proj = head_linears_[static_cast<std::size_t>(s)]->forward_int(
        feat.tokens, ctx);
    ws_release(ctx.ws, std::move(feat.tokens));
    // Requantize onto the common head scale while upsampling.
    const CodeTable& rq = head_rq_[static_cast<std::size_t>(s)];
    upsample_into_columns(
        proj, feat.h, feat.w, s, fused, oh, ow,
        [&rq](const std::int32_t* src, std::int32_t* dst, std::size_t d) {
          rq.gather({src, d}, {dst, d});
        });
    ws_release(ctx.ws, std::move(proj));
  }
  QTensor y = head_fuse_->forward_int(fused, ctx);
  ws_release(ctx.ws, std::move(fused));
  for (std::int32_t& v : y.data()) v = std::max(v, 0);  // integer ReLU
  QTensor logits = head_classifier_->forward_int(y, ctx);
  ws_release(ctx.ws, std::move(y));
  QTensor out = from_tokens(logits, oh, ow);
  ws_release(ctx.ws, std::move(logits));
  return out;
}

std::vector<int> SegformerB0Like::argmax_labels(const Tensor& logits) {
  return argmax_label_map(logits);
}

std::vector<int> SegformerB0Like::argmax_labels(const QTensor& logits) {
  return argmax_label_map(logits);
}

}  // namespace gqa::tfm
