// Tests for the two segmentation models: shape plumbing, determinism,
// head training, and FP-vs-INT8 agreement with exact non-linearities.
#include <gtest/gtest.h>

#include "eval/miou.h"
#include "eval/scene.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"
#include "util/artifact_store.h"
#include "util/contracts.h"

namespace gqa::tfm {
namespace {

SegformerConfig small_segformer() {
  SegformerConfig cfg;
  cfg.image_size = 32;
  cfg.dims = {16, 24, 32, 48};
  cfg.heads = {1, 2, 4, 8};
  cfg.depths = {1, 1, 1, 1};
  cfg.decoder_dim = 32;
  return cfg;
}

TEST(Segformer, LogitShapes) {
  const SegformerB0Like model(small_segformer());
  const LabeledScene scene = make_scene(SceneOptions{.size = 32}, 1);
  const Tensor logits = model.forward_fp(scene.image);
  EXPECT_EQ(logits.shape(), (Shape{19, 8, 8}));
  const Tensor feats = model.penultimate_fp(scene.image);
  EXPECT_EQ(feats.shape(), (Shape{64, 32}));
}

TEST(Segformer, DeterministicConstructionAndForward) {
  const SegformerB0Like a(small_segformer());
  const SegformerB0Like b(small_segformer());
  const LabeledScene scene = make_scene(SceneOptions{.size = 32}, 2);
  EXPECT_EQ(a.forward_fp(scene.image).data(), b.forward_fp(scene.image).data());
}

TEST(Segformer, ArgmaxLabels) {
  Tensor logits(Shape{3, 2, 2});
  logits.at(1, 0, 0) = 5.0f;
  logits.at(2, 1, 1) = 3.0f;
  const auto labels = SegformerB0Like::argmax_labels(logits);
  EXPECT_EQ(labels[0], 1);
  EXPECT_EQ(labels[3], 2);
  EXPECT_EQ(labels[1], 0);
}

TEST(Segformer, FreezeRequiresCalibration) {
  SegformerB0Like model(small_segformer());
  EXPECT_THROW(model.freeze(), ContractViolation);
  const LabeledScene scene = make_scene(SceneOptions{.size = 32}, 3);
  EXPECT_THROW(
      (void)model.forward_int(scene.image, NonlinearProvider::exact()),
      ContractViolation);
}

TEST(Segformer, IntAgreesWithFpAfterCalibration) {
  SegformerB0Like model(small_segformer());
  SceneOptions so{.size = 32};
  const auto scenes = make_scene_set(so, 6, 77);
  // Head training sharpens decision margins; without it agreement is noise.
  std::vector<Tensor> images;
  std::vector<std::vector<int>> labels;
  for (const auto& s : scenes) {
    images.push_back(s.image);
    labels.push_back(downsample_labels(s.labels, s.size, 8, 8));
  }
  model.train_classifier(images, labels, 20, 0.05);
  for (int i = 0; i < 4; ++i) model.calibrate(scenes[static_cast<std::size_t>(i)].image);
  model.freeze();

  const NonlinearProvider exact = NonlinearProvider::exact();
  ConfusionMatrix cm(19);
  for (const auto& s : scenes) {
    const auto fp = SegformerB0Like::argmax_labels(model.forward_fp(s.image));
    const auto iq =
        SegformerB0Like::argmax_labels(model.forward_int(s.image, exact));
    cm.add(fp, iq);
  }
  // INT8-exact predictions agree with the FP32 teacher on most pixels.
  EXPECT_GT(cm.pixel_accuracy(), 0.75);
}

/// FNV-1a over the raw bytes of a logits map's integer codes.
std::uint64_t code_hash(const QTensor& logits) {
  return fnv1a(std::string_view(
      reinterpret_cast<const char*>(logits.data().data()),
      logits.data().size() * sizeof(std::int32_t)));
}

// Golden integer codes: calibration records activation ranges, freeze()
// turns them into the power-of-two scales and requantizers, and any change
// to either moves these hashes. Both models, exact provider, one scene.
TEST(Segformer, GoldenIntCodes) {
  SegformerB0Like model(small_segformer());
  const LabeledScene scene = make_scene(SceneOptions{.size = 32}, 21);
  model.calibrate(scene.image);
  model.freeze();
  const QTensor logits =
      model.forward_int(scene.image, NonlinearProvider::exact());
  EXPECT_EQ(code_hash(logits), 0xfe47021f21b4205dULL);
}

/// GQA w/ RM (8 entries) on every replaceable op — the deployment
/// provider. The exact-provider goldens above never reach a fitted PWL
/// unit, so these pin the GQA-LUT codes end to end.
const NonlinearProvider& gqa_rm_provider() {
  static const NonlinearProvider nl = NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt});
  return nl;
}

TEST(Segformer, GoldenIntCodesGqaRm) {
  SegformerB0Like model(small_segformer());
  const LabeledScene scene = make_scene(SceneOptions{.size = 32}, 21);
  model.calibrate(scene.image);
  model.freeze();
  const QTensor logits = model.forward_int(scene.image, gqa_rm_provider());
  EXPECT_EQ(code_hash(logits), 0x3875833e59960c39ULL);
}

TEST(Segformer, IntForwardDeterministic) {
  SegformerB0Like model(small_segformer());
  const LabeledScene scene = make_scene(SceneOptions{.size = 32}, 5);
  model.calibrate(scene.image);
  model.freeze();
  const NonlinearProvider nl =
      NonlinearProvider::with_method(Method::kGqaRm, {Op::kExp, Op::kGelu});
  const QTensor a = model.forward_int(scene.image, nl);
  const QTensor b = model.forward_int(scene.image, nl);
  EXPECT_EQ(a.data(), b.data());
}

// ------------------------------------------------------------ efficientvit

EfficientViTConfig small_evit() {
  EfficientViTConfig cfg;
  cfg.image_size = 32;
  cfg.widths = {8, 12, 16, 24};
  cfg.head_dim = 24;
  return cfg;
}

TEST(EfficientViT, LogitShapes) {
  const EfficientViTB0Like model(small_evit());
  const LabeledScene scene = make_scene(SceneOptions{.size = 32}, 1);
  const Tensor logits = model.forward_fp(scene.image);
  EXPECT_EQ(logits.shape(), (Shape{19, 4, 4}));
  EXPECT_EQ(model.penultimate_fp(scene.image).shape(), (Shape{16, 24}));
}

TEST(EfficientViT, IntAgreesWithFp) {
  EfficientViTB0Like model(small_evit());
  SceneOptions so{.size = 32};
  const auto scenes = make_scene_set(so, 6, 99);
  std::vector<Tensor> images;
  std::vector<std::vector<int>> labels;
  for (const auto& s : scenes) {
    images.push_back(s.image);
    labels.push_back(downsample_labels(s.labels, s.size, 4, 4));
  }
  model.train_classifier(images, labels, 20, 0.05);
  for (int i = 0; i < 4; ++i) model.calibrate(scenes[static_cast<std::size_t>(i)].image);
  model.freeze();
  const NonlinearProvider exact = NonlinearProvider::exact();
  ConfusionMatrix cm(19);
  for (const auto& s : scenes) {
    cm.add(SegformerB0Like::argmax_labels(model.forward_fp(s.image)),
           SegformerB0Like::argmax_labels(model.forward_int(s.image, exact)));
  }
  EXPECT_GT(cm.pixel_accuracy(), 0.6);
}

TEST(EfficientViT, HswishReplacementRunsEndToEnd) {
  EfficientViTB0Like model(small_evit());
  const LabeledScene scene = make_scene(SceneOptions{.size = 32}, 13);
  model.calibrate(scene.image);
  model.freeze();
  const NonlinearProvider nl = NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kHswish, Op::kDiv});
  const QTensor logits = model.forward_int(scene.image, nl);
  EXPECT_EQ(logits.shape(), (Shape{19, 4, 4}));
}

TEST(EfficientViT, GoldenIntCodes) {
  EfficientViTB0Like model(small_evit());
  const LabeledScene scene = make_scene(SceneOptions{.size = 32}, 21);
  model.calibrate(scene.image);
  model.freeze();
  const QTensor logits =
      model.forward_int(scene.image, NonlinearProvider::exact());
  EXPECT_EQ(code_hash(logits), 0xe6327b4b3eaab0dfULL);
}

TEST(EfficientViT, GoldenIntCodesGqaRm) {
  EfficientViTB0Like model(small_evit());
  const LabeledScene scene = make_scene(SceneOptions{.size = 32}, 21);
  model.calibrate(scene.image);
  model.freeze();
  const QTensor logits = model.forward_int(scene.image, gqa_rm_provider());
  EXPECT_EQ(code_hash(logits), 0x32913be184ad8e13ULL);
}

// ---------------------------------------------------------------- provider

TEST(Provider, ReplacementSetRespected) {
  const NonlinearProvider nl =
      NonlinearProvider::with_method(Method::kGqaRm, {Op::kExp});
  EXPECT_TRUE(nl.replaces(Op::kExp));
  EXPECT_FALSE(nl.replaces(Op::kGelu));
  // Non-replaced ops are computed exactly.
  EXPECT_DOUBLE_EQ(nl.gelu_code(16, -4), eval_op(Op::kGelu, 1.0));
  // Replaced ops go through the pwl kernel (close but not exact).
  const double approx_exp = nl.exp_code(-32, -4);  // exp(-2)
  EXPECT_NEAR(approx_exp, std::exp(-2.0), 0.03);
}

TEST(Provider, ExactBackendMatchesReferences) {
  const NonlinearProvider nl = NonlinearProvider::exact();
  EXPECT_DOUBLE_EQ(nl.exp_code(-16, -3), std::exp(-2.0));
  EXPECT_DOUBLE_EQ(nl.recip_fxp(1 << 15, 16), 2.0);
  EXPECT_DOUBLE_EQ(nl.rsqrt_fxp(4 << 16, 16), 0.5);
  EXPECT_THROW(nl.recip_fxp(0, 16), ContractViolation);
  EXPECT_THROW(nl.rsqrt_fxp(-1, 16), ContractViolation);
}

TEST(Provider, KernelInputSaturatesAtBus) {
  const NonlinearProvider nl =
      NonlinearProvider::with_method(Method::kGqaRm, {Op::kExp});
  // Softmax max-subtraction can produce codes below -128; the provider
  // clamps to the INT8 bus like the hardware would.
  EXPECT_NO_THROW(nl.exp_code(-255, -3));
  EXPECT_NEAR(nl.exp_code(-255, -3), nl.exp_code(-128, -3), 1e-12);
}

}  // namespace
}  // namespace gqa::tfm
