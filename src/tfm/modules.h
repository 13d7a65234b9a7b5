// Transformer building blocks with dual execution paths:
//   forward_fp  — float reference; a calibrating forward also records the
//                 activation ranges freeze() turns into quantization params
//   forward_int — integer-only inference following the dyadic pipeline
//                 (INT8 activation codes, INT32/64 accumulators, dyadic
//                 requantization), with non-linear ops served by a
//                 NonlinearProvider (exact or bit-accurate pwl kernels).
//
// Lifecycle: construct (random weights) -> forward_fp(x, {.calibrating =
// true}) on sample inputs (records activation ranges) -> freeze(in_qp)
// (builds integer weights/requantizers, returns the output QuantParams) ->
// forward_int(...). Calibration is the float forward itself, so the ranges
// are observed on exactly the dataflow the reference computes.
//
// Every forward takes one ExecContext carrying the execution state (pool,
// workspace, calibrating flag) down the module tree unchanged; see its
// comment for the threading, workspace and calibration rules.
//
// Row/channel fan-outs carry a granularity floor (pooled_for min_per_lane):
// when a tensor is too small for the per-task work to amortize dispatch,
// the loop runs inline, so threading can never lose to serial on tiny
// layers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "quant/calibration.h"
#include "quant/requant.h"
#include "tfm/nonlinear_provider.h"
#include "tfm/tensor.h"
#include "tfm/workspace.h"
#include "util/thread_pool.h"

namespace gqa::tfm {

/// Shared quantization policy. Only tensors consumed by non-linear pwl
/// units carry power-of-two scales (the paper's constraint, §3.1/§4.2);
/// all other activations use real min-max scales and weight scales stay
/// real-valued, so the dyadic requantizers are exercised throughout.
struct QuantPolicy {
  int act_bits = 8;
};

/// Execution state of one forward, passed unchanged through every module.
///
/// `pool`: nullptr (the default) runs serially; a pool fans the work out
/// over rows / output channels / heads. Each parallel index writes disjoint
/// output slots with the serial reduction order preserved inside it, so
/// threaded results are bit-identical to serial at any thread count.
///
/// `ws`: layer outputs and staging buffers come from (and return to)
/// reusable pooled storage, so a serving loop stops re-mallocing every
/// intermediate per image. Results are bit-identical with or without one.
/// A workspace is only ever touched by its calling thread (one per thread,
/// never shared — see workspace.h); fan-out bodies take lane().
///
/// `calibrating`: forward_fp also records activation ranges into the
/// modules' observers. Observers are unsynchronised, so a calibrating
/// forward rejects a multi-lane pool, and a plain forward never writes
/// them — concurrent forwards on one frozen model stay race-free.
struct ExecContext {
  ThreadPool* pool = nullptr;
  Workspace* ws = nullptr;
  bool calibrating = false;

  /// True when pooled fan-outs run inline on the calling thread.
  [[nodiscard]] bool serial() const {
    return pool == nullptr || pool->size() <= 1;
  }
  /// Context for a fan-out body: pool-free (parallel_for is not
  /// reentrant), keeping the workspace only when the body runs inline.
  [[nodiscard]] ExecContext lane() const {
    return {nullptr, serial() ? ws : nullptr, calibrating};
  }
};

// ---------------------------------------------------------------------------

class Linear {
 public:
  Linear(int in_features, int out_features, Rng& rng);

  // {N,in}->{N,out}; threads over rows.
  [[nodiscard]] Tensor forward_fp(const Tensor& x,
                                  const ExecContext& ctx = {}) const;
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& x,
                                    const ExecContext& ctx = {}) const;

  [[nodiscard]] int in_features() const { return in_; }
  [[nodiscard]] int out_features() const { return out_; }
  [[nodiscard]] Tensor& weights() { return w_; }
  [[nodiscard]] Tensor& bias() { return b_; }
  [[nodiscard]] double weight_scale() const { return w_scale_; }
  /// True when freeze() found int32 accumulation exact for this layer's
  /// inputs, so forward_int may run the dispatched kernel.
  [[nodiscard]] bool int32_accumulation_exact() const { return int32_exact_; }
  /// Forces a power-of-two output scale (required when a pwl unit consumes
  /// this output).
  void set_po2_output(bool po2) { po2_out_ = po2; }

 private:
  int in_ = 0, out_ = 0;
  bool po2_out_ = false;
  Tensor w_;  ///< {out, in}
  Tensor b_;  ///< {out}
  mutable RangeObserver out_obs_;
  std::vector<std::int8_t> wq_;  ///< INT8 weights as the GEMM panel (kernel/gemm.h)
  std::vector<std::int32_t> bq_;
  bool int32_exact_ = false;  ///< passes kernel::int32_accumulation_exact
  double w_scale_ = 0.0;
  QuantParams in_qp_, out_qp_;
  Requantizer rq_;
};

// ---------------------------------------------------------------------------

class Conv2d {
 public:
  Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad, Rng& rng,
         bool depthwise = false);

  // {C,H,W}; threads over output channels.
  [[nodiscard]] Tensor forward_fp(const Tensor& x,
                                  const ExecContext& ctx = {}) const;
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& x,
                                    const ExecContext& ctx = {}) const;

  [[nodiscard]] int out_channels() const { return out_ch_; }
  [[nodiscard]] int stride() const { return stride_; }
  /// True when freeze() found int32 accumulation exact for this layer's
  /// inputs, so forward_int may run the dispatched kernel.
  [[nodiscard]] bool int32_accumulation_exact() const { return int32_exact_; }
  [[nodiscard]] Tensor& weights() { return w_; }
  [[nodiscard]] Tensor& bias() { return b_; }
  /// Forces a power-of-two output scale (required when a pwl unit consumes
  /// this output).
  void set_po2_output(bool po2) { po2_out_ = po2; }

 private:
  int in_ch_ = 0, out_ch_ = 0, kernel_ = 0, stride_ = 1, pad_ = 0;
  bool po2_out_ = false;
  bool depthwise_ = false;
  Tensor w_;  ///< {out, in_per_group, k, k}
  Tensor b_;  ///< {out}
  mutable RangeObserver out_obs_;
  /// INT8 weights: the GEMM panel (kernel/gemm.h), or {C, k, k} taps for a
  /// depthwise conv.
  std::vector<std::int8_t> wq_;
  std::vector<std::int32_t> bq_;
  bool int32_exact_ = false;  ///< passes kernel::int32_accumulation_exact
  double w_scale_ = 0.0;
  QuantParams in_qp_, out_qp_;
  Requantizer rq_;
};

// ---------------------------------------------------------------------------

/// LayerNorm over the last dimension of a {N, D} token matrix. The integer
/// path computes exact integer moments and uses the RSQRT kernel with the
/// Table 2 multi-range scaling (§3.1); a power-of-4 pre-normalization keeps
/// arbitrary variance magnitudes inside the multi-range span.
class LayerNorm {
 public:
  LayerNorm(int dim, Rng& rng);

  [[nodiscard]] Tensor forward_fp(const Tensor& x,
                                  const ExecContext& ctx = {}) const;
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  /// Threads over rows; the batched RSQRT call stays a single span so the
  /// result is bit-identical to serial.
  [[nodiscard]] QTensor forward_int(const QTensor& x,
                                    const NonlinearProvider& nl,
                                    const ExecContext& ctx = {}) const;

  [[nodiscard]] Tensor& gamma() { return gamma_; }
  [[nodiscard]] Tensor& beta() { return beta_; }

 private:
  int dim_ = 0;
  Tensor gamma_, beta_;
  mutable RangeObserver out_obs_;
  QuantParams in_qp_, out_qp_;
};

// ---------------------------------------------------------------------------

/// Row-wise Softmax. Integer path: integer max-subtraction -> EXP pwl on
/// INT8 codes -> exact integer accumulation -> DIV pwl with multi-range
/// scaling -> unsigned 8-bit probabilities with scale 2^-7.
class Softmax {
 public:
  /// Output quantization of the probabilities (fixed by design).
  [[nodiscard]] static QuantParams prob_params() {
    return QuantParams{std::ldexp(1.0, -7), 8, false};
  }

  [[nodiscard]] static Tensor forward_fp(const Tensor& rows,
                                         const ExecContext& ctx = {});
  /// `rows` must carry a power-of-two scale. Threads over rows.
  [[nodiscard]] static QTensor forward_int(const QTensor& rows,
                                           const NonlinearProvider& nl,
                                           const ExecContext& ctx = {});
};

// ---------------------------------------------------------------------------

/// Elementwise activation (GELU or HSWISH) through the provider.
class Activation {
 public:
  Activation(Op op) : op_(op) {}

  [[nodiscard]] Tensor forward_fp(const Tensor& x,
                                  const ExecContext& ctx = {}) const;
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  /// Threads over leading-dimension rows.
  [[nodiscard]] QTensor forward_int(const QTensor& x,
                                    const NonlinearProvider& nl,
                                    const ExecContext& ctx = {}) const;

 private:
  Op op_;
  mutable RangeObserver out_obs_;
  QuantParams in_qp_, out_qp_;
};

// ---------------------------------------------------------------------------

/// Integer-safe residual add: both operands are requantized onto the output
/// scale with dyadic multipliers, then summed with saturation.
class ResidualAdd {
 public:
  [[nodiscard]] Tensor forward_fp(const Tensor& a, const Tensor& b,
                                  const ExecContext& ctx = {}) const;
  QuantParams freeze(const QuantParams& a_qp, const QuantParams& b_qp,
                     const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& a, const QTensor& b,
                                    const ExecContext& ctx = {}) const;

 private:
  mutable RangeObserver out_obs_;
  QuantParams a_qp_, b_qp_, out_qp_;
  Requantizer rq_a_, rq_b_;
};

// ---------------------------------------------------------------------------

/// Segformer-style efficient multi-head self-attention with spatial
/// reduction of K/V by a strided convolution (reduction ratio R).
class AttentionSR {
 public:
  AttentionSR(int dim, int heads, int sr_ratio, Rng& rng);

  [[nodiscard]] Tensor forward_fp(const Tensor& tokens, int h, int w,
                                  const ExecContext& ctx = {}) const;
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  /// Threads over heads (the Q/K/V/proj linears thread over rows).
  [[nodiscard]] QTensor forward_int(const QTensor& tokens, int h, int w,
                                    const NonlinearProvider& nl,
                                    const ExecContext& ctx = {}) const;

 private:
  int dim_ = 0, heads_ = 0, sr_ = 1;
  Linear q_lin_, k_lin_, v_lin_, proj_;
  std::unique_ptr<Conv2d> sr_conv_;
  mutable RangeObserver score_obs_, attn_obs_;
  QuantParams score_qp_, attn_qp_;
  Requantizer rq_score_, rq_attn_;
};

// ---------------------------------------------------------------------------

/// EfficientViT-style ReLU linear attention: out = (relu(Q)·(relu(K)ᵀV)) /
/// (relu(Q)·(relu(K)ᵀ1)). The normalizer uses the DIV kernel; a calibrated
/// power-of-two pre-scale keeps the denominator inside the Table 2 span.
class LinearAttention {
 public:
  LinearAttention(int dim, Rng& rng);

  [[nodiscard]] Tensor forward_fp(const Tensor& tokens,
                                  const ExecContext& ctx = {}) const;
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  /// Threads over output rows (the shared KᵀV/Kᵀ1 reduction stays serial).
  [[nodiscard]] QTensor forward_int(const QTensor& tokens,
                                    const NonlinearProvider& nl,
                                    const ExecContext& ctx = {}) const;

 private:
  int dim_ = 0;
  Linear q_lin_, k_lin_, v_lin_, proj_;
  mutable RangeObserver den_obs_, out_obs_;
  QuantParams out_qp_;
  int den_prescale_exp_ = 0;  ///< denominator pre-scale 2^g into DIV range
};

// ---------------------------------------------------------------------------

/// Segformer Mix-FFN: Linear -> 3x3 depthwise conv -> GELU -> Linear.
class MixFfn {
 public:
  MixFfn(int dim, int hidden, Rng& rng);

  [[nodiscard]] Tensor forward_fp(const Tensor& tokens, int h, int w,
                                  const ExecContext& ctx = {}) const;
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& tokens, int h, int w,
                                    const NonlinearProvider& nl,
                                    const ExecContext& ctx = {}) const;

 private:
  Linear fc1_, fc2_;
  Conv2d dw_;
  Activation act_;
};

// ---------------------------------------------------------------------------

/// MobileNet-style inverted bottleneck with HSWISH activations
/// (EfficientViT building block). Residual when in==out and stride 1.
class MbConv {
 public:
  MbConv(int in_ch, int out_ch, int expand, int stride, Rng& rng);

  [[nodiscard]] Tensor forward_fp(const Tensor& x,
                                  const ExecContext& ctx = {}) const;
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& x,
                                    const NonlinearProvider& nl,
                                    const ExecContext& ctx = {}) const;

 private:
  bool residual_ = false;
  Conv2d expand_, dw_, project_;
  Activation act1_, act2_;
  ResidualAdd add_;
};

}  // namespace gqa::tfm
