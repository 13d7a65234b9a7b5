#include "tfm/modules.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>

#include "kernel/dispatch.h"
#include "kernel/gemm.h"
#include "numerics/nonlinear.h"
#include "numerics/rounding.h"
#include "util/contracts.h"

namespace gqa::tfm {

namespace {

/// Symmetric per-tensor weight quantization to INT8 codes.
double quantize_weights(const Tensor& w, std::vector<std::int8_t>& codes) {
  const double scale = std::max(w.amax(), 1e-8) / 127.0;
  codes.resize(w.data().size());
  for (std::size_t i = 0; i < w.data().size(); ++i) {
    codes[i] = static_cast<std::int8_t>(saturate(
        round_to_int(static_cast<double>(w.data()[i]) / scale), 8, true));
  }
  return scale;
}

std::vector<std::int32_t> quantize_bias(const Tensor& b, double acc_scale) {
  std::vector<std::int32_t> codes(b.data().size());
  for (std::size_t i = 0; i < b.data().size(); ++i) {
    codes[i] = static_cast<std::int32_t>(saturate(
        round_to_int(static_cast<double>(b.data()[i]) / acc_scale), 31, true));
  }
  return codes;
}

int conv_out_size(int in, int kernel, int stride, int pad) {
  // Guard the numerator, not the quotient: for stride > 1 C++ integer
  // division truncates toward zero, so a kernel window that never fits
  // (negative numerator) would still round up to an output size of 1.
  GQA_EXPECTS_MSG(in + 2 * pad - kernel >= 0,
                  "conv input (plus padding) is smaller than the kernel: "
                  "output spatial size would be non-positive");
  return (in + 2 * pad - kernel) / stride + 1;
}

// Granularity floors for the intra-forward fan-outs: below these, the
// per-task work cannot amortize pool dispatch and pooled_for runs inline
// (bit-identical either way). Rows cover token matrices (per-row cost is a
// dot-product sweep), channels cover conv output maps (heavy per channel),
// elems cover pointwise loops.
constexpr std::size_t kMinRowsPerLane = 8;
constexpr std::size_t kMinChannelsPerLane = 2;
constexpr std::size_t kMinElemsPerLane = 4096;
/// GEMM fan-outs count work in multiply-accumulates: a register-tile
/// column block of a small layer is far cheaper than one pool dispatch.
constexpr std::size_t kMinMacsPerLane = std::size_t{1} << 20;

/// Quantizes a GEMM layer's weights W{rows, depth} and packs them into the
/// kernel panel; returns whether int32 accumulation is exact for inputs
/// with `in_qp` (the gate both the dispatched kernel and the layer read).
/// The activation panel holds int16 codes, so wider inputs are rejected.
bool pack_gemm_layer(const Tensor& w, int rows, int depth,
                     const QuantParams& in_qp, double& w_scale,
                     std::vector<std::int8_t>& panel) {
  const BusBounds in = bus_bounds(in_qp.bits, in_qp.is_signed);
  GQA_EXPECTS_MSG(in.lo >= std::numeric_limits<std::int16_t>::min() &&
                      in.hi <= std::numeric_limits<std::int16_t>::max(),
                  "integer Linear/Conv2d inputs must be codes of at most 16 "
                  "bits (the GEMM activation panel holds int16 pairs)");
  std::vector<std::int8_t> codes;
  w_scale = quantize_weights(w, codes);
  panel = kernel::pack_gemm_weights(codes, rows, depth);
  return kernel::int32_accumulation_exact(
      in, kernel::max_row_abs_sum(codes, rows, depth));
}

/// Activation panels up to this many words live on the stack: the
/// Workspace serves buffers below its pooling floor from the allocator,
/// so small layers would otherwise allocate on every forward.
constexpr std::size_t kStackPanelWords = 2048;

/// Runs one GEMM layer over its g.n columns. `pack(panel, lo, hi)` fills
/// the activation panel's column tiles [lo, hi); the dispatched gemm then
/// computes them, or the scalar oracle when the backend has no gemm or the
/// layer fails the exactness gate. Tiles fan out across the pool, and each
/// lane packs and reads only its own tiles.
template <typename Pack>
void run_gemm(kernel::GemmView g, bool int32_exact, const Pack& pack,
              const ExecContext& ctx) {
  const std::size_t words = kernel::gemm_x_panel_words(g.depth, g.n);
  std::array<std::int32_t, kStackPanelWords> local;
  QTensor pooled;
  std::int32_t* panel = local.data();
  if (words > local.size()) {
    pooled = ws_qtensor(ctx.ws, Shape{static_cast<int>(words)}, QuantParams{});
    panel = pooled.data().data();
  } else {
    std::fill_n(panel, words, 0);  // pad columns: computed, never stored
  }
  g.x_panel = panel;
  const auto dispatched = kernel::active().ops.gemm;
  const auto gemm = dispatched != nullptr && int32_exact
                        ? dispatched
                        : kernel::gemm_reference;
  const auto tile = [&](std::size_t t) {
    pack(panel, t, t + 1);
    gemm(g, t, t + 1);
  };
  // std::cref: a std::function holds a reference_wrapper without a heap
  // allocation, which a capture of this size would cost on every call.
  const std::size_t tile_macs =
      static_cast<std::size_t>(kernel::kGemmTileN) * g.m * g.depth;
  pooled_for(ctx.pool, kernel::gemm_tiles(g.n), std::cref(tile),
             std::max<std::size_t>(1, kMinMacsPerLane / tile_macs));
  if (words > local.size()) ws_release(ctx.ws, std::move(pooled));
}

/// Records a calibrating forward's output range; a plain forward never
/// touches the observer. Observers are unsynchronised, so calibration is
/// rejected on a multi-lane pool.
void observe(const ExecContext& ctx, RangeObserver& obs, const Tensor& y) {
  if (!ctx.calibrating) return;
  GQA_EXPECTS_MSG(ctx.serial(),
                  "a calibrating forward must not fan out across lanes");
  obs.observe(std::span<const float>(y.data()));
}

}  // namespace

// --------------------------------------------------------------- Linear ---

Linear::Linear(int in_features, int out_features, Rng& rng)
    : in_(in_features), out_(out_features) {
  GQA_EXPECTS(in_features >= 1 && out_features >= 1);
  const double std = std::sqrt(2.0 / (in_features + out_features));
  w_ = Tensor::randn(Shape{out_, in_}, rng, std);
  b_ = Tensor::randn(Shape{out_}, rng, 0.02);
}

Tensor Linear::forward_fp(const Tensor& x, const ExecContext& ctx) const {
  GQA_EXPECTS(x.shape().rank() == 2 && x.shape()[1] == in_);
  const int n = x.shape()[0];
  Tensor y = ws_tensor(ctx.ws, Shape{n, out_});
  pooled_for(
      ctx.pool, static_cast<std::size_t>(n),
      [&](std::size_t row) {
        const int i = static_cast<int>(row);
        for (int o = 0; o < out_; ++o) {
          double acc = b_.at(o);
          for (int k = 0; k < in_; ++k) acc += x.at(i, k) * w_.at(o, k);
          y.at(i, o) = static_cast<float>(acc);
        }
      },
      kMinRowsPerLane);
  observe(ctx, out_obs_, y);
  return y;
}

QuantParams Linear::freeze(const QuantParams& in_qp,
                           const QuantPolicy& policy) {
  GQA_EXPECTS_MSG(!out_obs_.empty(), "freeze() requires prior calibration");
  in_qp_ = in_qp;
  int32_exact_ = pack_gemm_layer(w_, out_, in_, in_qp, w_scale_, wq_);
  const double acc_scale = in_qp.scale * w_scale_;
  bq_ = quantize_bias(b_, acc_scale);
  out_qp_ = po2_out_ ? out_obs_.make_po2(policy.act_bits)
                     : out_obs_.make_params(policy.act_bits);
  rq_ = Requantizer(acc_scale, out_qp_);
  return out_qp_;
}

QTensor Linear::forward_int(const QTensor& x, const ExecContext& ctx) const {
  GQA_EXPECTS(x.shape().rank() == 2 && x.shape()[1] == in_);
  GQA_EXPECTS_MSG(x.params() == in_qp_, "input params differ from freeze()");
  const int n = x.shape()[0];
  QTensor y = ws_qtensor(ctx.ws, Shape{n, out_}, out_qp_);
  // Row-major tokens: X[k,p] = x[p·in + k]; y stays {tokens, out}.
  run_gemm({.w_panel = wq_.data(),
            .bias = bq_.data(),
            .m = out_,
            .n = n,
            .depth = in_,
            .rq = rq_.multiplier(),
            .out = bus_bounds(out_qp_.bits, out_qp_.is_signed),
            .y = y.data().data(),
            .y_stride_m = 1,
            .y_stride_n = out_},
           int32_exact_,
           [&](std::int32_t* panel, std::size_t lo, std::size_t hi) {
             kernel::pack_gemm_x(x.data().data(), 1, in_, in_, n, panel, lo,
                                 hi);
           },
           ctx);
  return y;
}

// --------------------------------------------------------------- Conv2d ---

Conv2d::Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
               Rng& rng, bool depthwise)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      depthwise_(depthwise) {
  GQA_EXPECTS(in_ch >= 1 && out_ch >= 1 && kernel >= 1 && stride >= 1);
  if (depthwise_) GQA_EXPECTS_MSG(in_ch == out_ch, "depthwise needs in==out");
  const int fan_in = (depthwise_ ? 1 : in_ch) * kernel * kernel;
  const double std = std::sqrt(2.0 / fan_in);
  w_ = Tensor::randn(Shape{out_ch_, depthwise_ ? 1 : in_ch_, kernel_, kernel_},
                     rng, std);
  b_ = Tensor::randn(Shape{out_ch_}, rng, 0.02);
}

Tensor Conv2d::forward_fp(const Tensor& x, const ExecContext& ctx) const {
  GQA_EXPECTS(x.shape().rank() == 3 && x.shape()[0] == in_ch_);
  const int h = x.shape()[1];
  const int w = x.shape()[2];
  const int oh = conv_out_size(h, kernel_, stride_, pad_);
  const int ow = conv_out_size(w, kernel_, stride_, pad_);
  Tensor y = ws_tensor(ctx.ws, Shape{out_ch_, oh, ow});
  pooled_for(ctx.pool, static_cast<std::size_t>(out_ch_), [&](std::size_t ch) {
    const int oc = static_cast<int>(ch);
    const int ic_lo = depthwise_ ? oc : 0;
    const int ic_hi = depthwise_ ? oc + 1 : in_ch_;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        double acc = b_.at(oc);
        for (int ic = ic_lo; ic < ic_hi; ++ic) {
          const int wc = depthwise_ ? 0 : ic;
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = oy * stride_ - pad_ + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < kernel_; ++kx) {
              const int ix = ox * stride_ - pad_ + kx;
              if (ix < 0 || ix >= w) continue;
              acc += x.at(ic, iy, ix) * w_.at(oc, wc, ky, kx);
            }
          }
        }
        y.at(oc, oy, ox) = static_cast<float>(acc);
      }
    }
  }, kMinChannelsPerLane);
  observe(ctx, out_obs_, y);
  return y;
}

QuantParams Conv2d::freeze(const QuantParams& in_qp,
                           const QuantPolicy& policy) {
  GQA_EXPECTS_MSG(!out_obs_.empty(), "freeze() requires prior calibration");
  in_qp_ = in_qp;
  const int depth = (depthwise_ ? 1 : in_ch_) * kernel_ * kernel_;
  if (depthwise_) {
    w_scale_ = quantize_weights(w_, wq_);
    int32_exact_ = kernel::int32_accumulation_exact(
        bus_bounds(in_qp.bits, in_qp.is_signed),
        kernel::max_row_abs_sum(wq_, out_ch_, depth));
  } else {
    int32_exact_ = pack_gemm_layer(w_, out_ch_, depth, in_qp, w_scale_, wq_);
  }
  const double acc_scale = in_qp.scale * w_scale_;
  bq_ = quantize_bias(b_, acc_scale);
  out_qp_ = po2_out_ ? out_obs_.make_po2(policy.act_bits)
                     : out_obs_.make_params(policy.act_bits);
  rq_ = Requantizer(acc_scale, out_qp_);
  return out_qp_;
}

QTensor Conv2d::forward_int(const QTensor& x, const ExecContext& ctx) const {
  GQA_EXPECTS(x.shape().rank() == 3 && x.shape()[0] == in_ch_);
  GQA_EXPECTS_MSG(x.params() == in_qp_, "input params differ from freeze()");
  const int h = x.shape()[1];
  const int w = x.shape()[2];
  const int oh = conv_out_size(h, kernel_, stride_, pad_);
  const int ow = conv_out_size(w, kernel_, stride_, pad_);
  QTensor y = ws_qtensor(ctx.ws, Shape{out_ch_, oh, ow}, out_qp_);
  const int pixels = oh * ow;
  const BusBounds out = bus_bounds(out_qp_.bits, out_qp_.is_signed);
  // Pointwise and dense convs are GEMMs over output pixels (y stays
  // {C, H, W}); depthwise convs do not read this view.
  const kernel::GemmView g{.w_panel = wq_.data(),
                           .bias = bq_.data(),
                           .m = out_ch_,
                           .n = pixels,
                           .depth = in_ch_ * kernel_ * kernel_,
                           .rq = rq_.multiplier(),
                           .out = out,
                           .y = y.data().data(),
                           .y_stride_m = pixels,
                           .y_stride_n = 1};
  if (kernel_ == 1 && stride_ == 1 && pad_ == 0 && !depthwise_) {
    // Pointwise: channel-major planes X[k,p] = x[k·pixels + p], transposed
    // while packing.
    run_gemm(g, int32_exact_,
             [&](std::int32_t* panel, std::size_t lo, std::size_t hi) {
               kernel::pack_gemm_x(x.data().data(), pixels, 1, in_ch_, pixels,
                                   panel, lo, hi);
             },
             ctx);
    return y;
  }
  // Every other shape reads a zero-padded copy of the input (depthwise
  // always, for the vector kernels' slack words): out-of-bounds taps read
  // exact zero codes, so no tap needs a bounds check.
  const int hp = h + 2 * pad_;
  const int wp = w + 2 * pad_;
  const std::size_t plane = static_cast<std::size_t>(hp) * wp;
  QTensor padded;
  const std::int32_t* src = x.data().data();
  if (pad_ > 0 || depthwise_) {
    padded = ws_qtensor(
        ctx.ws,
        Shape{static_cast<int>(in_ch_ * plane + kernel::kDepthwiseSlackWords)},
        in_qp_);
    for (int ic = 0; ic < in_ch_; ++ic) {
      std::int32_t* dst = padded.data().data() + ic * plane +
                          static_cast<std::size_t>(pad_) * wp + pad_;
      for (int iy = 0; iy < h; ++iy, src += w, dst += wp) {
        std::copy_n(src, w, dst);
      }
    }
    src = padded.data().data();
  }
  if (depthwise_) {
    const kernel::DepthwiseView d{.x = src,
                                  .hp = hp,
                                  .wp = wp,
                                  .w = wq_.data(),
                                  .bias = bq_.data(),
                                  .kernel = kernel_,
                                  .stride = stride_,
                                  .oh = oh,
                                  .ow = ow,
                                  .rq = rq_.multiplier(),
                                  .out = out,
                                  .y = y.data().data()};
    const auto dispatched = kernel::active().ops.depthwise;
    const auto depthwise = dispatched != nullptr && int32_exact_
                               ? dispatched
                               : kernel::depthwise_reference;
    const auto channel = [&](std::size_t ch) { depthwise(d, ch, ch + 1); };
    pooled_for(ctx.pool, static_cast<std::size_t>(out_ch_), std::cref(channel),
               kMinChannelsPerLane);
  } else {
    // Dense k×k: the im2col gather writes each pixel's window, in
    // (ic, ky, kx) order — the weight rows' order — straight into the
    // panel, consecutive taps pairing into one word.
    run_gemm(g, int32_exact_,
             [&](std::int32_t* panel, std::size_t lo, std::size_t hi) {
               const int p_hi = std::min(
                   pixels, static_cast<int>(hi) * kernel::kGemmTileN);
               for (int p = static_cast<int>(lo) * kernel::kGemmTileN;
                    p < p_hi; ++p) {
                 const std::int32_t* win =
                     src + static_cast<std::size_t>(p / ow) * stride_ * wp +
                     static_cast<std::size_t>(p % ow) * stride_;
                 std::int32_t* col = panel + kernel::gemm_x_column(g.depth, p);
                 std::int32_t pending = 0;
                 bool odd = false;
                 for (int ic = 0; ic < in_ch_; ++ic) {
                   for (int ky = 0; ky < kernel_; ++ky) {
                     const std::int32_t* row =
                         win + ic * plane + static_cast<std::size_t>(ky) * wp;
                     for (int kx = 0; kx < kernel_; ++kx, odd = !odd) {
                       if (odd) {
                         *col = kernel::gemm_pair(pending, row[kx]);
                         col += kernel::kGemmTileN;
                       } else {
                         pending = row[kx];
                       }
                     }
                   }
                 }
                 if (odd) *col = kernel::gemm_pair(pending, 0);
               }
             },
             ctx);
  }
  if (pad_ > 0 || depthwise_) ws_release(ctx.ws, std::move(padded));
  return y;
}

// ------------------------------------------------------------ LayerNorm ---

LayerNorm::LayerNorm(int dim, Rng& rng) : dim_(dim) {
  GQA_EXPECTS(dim >= 2);
  gamma_ = Tensor(Shape{dim_});
  beta_ = Tensor(Shape{dim_});
  for (int i = 0; i < dim_; ++i) {
    gamma_.at(i) = static_cast<float>(1.0 + rng.normal(0.0, 0.05));
    beta_.at(i) = static_cast<float>(rng.normal(0.0, 0.05));
  }
}

Tensor LayerNorm::forward_fp(const Tensor& x, const ExecContext& ctx) const {
  GQA_EXPECTS(x.shape().rank() == 2 && x.shape()[1] == dim_);
  const int n = x.shape()[0];
  Tensor y = ws_tensor(ctx.ws, x.shape());
  pooled_for(ctx.pool, static_cast<std::size_t>(n), [&](std::size_t row) {
    const int i = static_cast<int>(row);
    double mean = 0.0;
    for (int d = 0; d < dim_; ++d) mean += x.at(i, d);
    mean /= dim_;
    double var = 0.0;
    for (int d = 0; d < dim_; ++d) {
      const double c = x.at(i, d) - mean;
      var += c * c;
    }
    var /= dim_;
    const double inv = 1.0 / std::sqrt(var + 1e-5);
    for (int d = 0; d < dim_; ++d) {
      y.at(i, d) = static_cast<float>((x.at(i, d) - mean) * inv * gamma_.at(d) +
                                      beta_.at(d));
    }
  }, kMinRowsPerLane);
  observe(ctx, out_obs_, y);
  return y;
}

QuantParams LayerNorm::freeze(const QuantParams& in_qp,
                              const QuantPolicy& policy) {
  GQA_EXPECTS_MSG(!out_obs_.empty(), "freeze() requires prior calibration");
  in_qp_ = in_qp;
  out_qp_ = out_obs_.make_params(policy.act_bits);
  return out_qp_;
}

QTensor LayerNorm::forward_int(const QTensor& x, const NonlinearProvider& nl,
                               const ExecContext& ctx) const {
  GQA_EXPECTS(x.shape().rank() == 2 && x.shape()[1] == dim_);
  GQA_EXPECTS_MSG(x.params() == in_qp_, "input params differ from freeze()");
  const int n = x.shape()[0];
  QTensor y = ws_qtensor(ctx.ws, x.shape(), out_qp_);
  constexpr int kVarFrac = 8;  ///< fractional bits of the variance bus
  // Pass 1: per-row integer moments and variance bus codes, so every row's
  // RSQRT streams through the multi-range unit in one batched call.
  // Staging vectors come from the workspace (allocated and released on the
  // calling thread, outside the fan-outs).
  std::vector<std::int64_t> sums = ws_i64(ctx.ws, static_cast<std::size_t>(n));
  std::vector<std::int64_t> w_codes = ws_i64(ctx.ws, static_cast<std::size_t>(n));
  std::vector<std::int64_t> prenorm = ws_i64(ctx.ws, static_cast<std::size_t>(n));
  // Dispatched row moments: the sum is a pure integer reduction (exact in
  // any order); the centered second moment squares c = D·q − Σq in 32-bit
  // lanes, so it is dispatched only when |c| provably fits int32 — i.e.
  // 2·D·2^(bits−1) stays under the int32 ceiling. Out-of-bound widths keep
  // the scalar loops.
  const auto row_sum = kernel::active().ops.sum_i32;
  auto row_ssq = kernel::active().ops.ssq_centered_i32;
  const std::int64_t amax = std::max(-int_min(in_qp_.bits, in_qp_.is_signed),
                                     int_max(in_qp_.bits, in_qp_.is_signed));
  if (2 * static_cast<std::int64_t>(dim_) * amax >
      std::numeric_limits<std::int32_t>::max()) {
    row_ssq = nullptr;
  }
  pooled_for(ctx.pool, static_cast<std::size_t>(n), [&](std::size_t row) {
    const int i = static_cast<int>(row);
    const std::int32_t* xrow =
        x.data().data() + static_cast<std::size_t>(i) * dim_;
    // Exact integer moments via the D-scaled centering trick:
    // c'_d = D·q_d − Σq  has value D·S·(x_d − μ), no mean rounding.
    std::int64_t sum = 0;
    if (row_sum != nullptr) {
      sum = row_sum(xrow, static_cast<std::size_t>(dim_));
    } else {
      for (int d = 0; d < dim_; ++d) sum += x.at(i, d);
    }
    sums[static_cast<std::size_t>(i)] = sum;
    // W = (Σ c'²)/D³ has value S²σ²·D⁰... normalized so that
    // n_d = c'_d / (D·σ_q) with σ_q in code units; the quant scale cancels.
    std::int64_t ssq = 0;  // Σ c'² / D, rounded — fits int64 for D ≤ 4096
    std::int64_t raw = 0;
    if (row_ssq != nullptr) {
      raw = row_ssq(xrow, dim_, sum, static_cast<std::size_t>(dim_));
    } else {
      for (int d = 0; d < dim_; ++d) {
        const std::int64_t c =
            static_cast<std::int64_t>(dim_) * x.at(i, d) - sum;
        raw += c * c;
      }
    }
    ssq = shift_round(raw, 0) / dim_;  // Σc'²/D, exact division remainder dropped
    // Variance bus: W_code = (Σc'²/D) · 2^kVarFrac / D²  (value = σ_q²·D⁰·2^f)
    const double var_codes =
        static_cast<double>(ssq) / (static_cast<double>(dim_) * dim_);
    std::int64_t w_code = std::max<std::int64_t>(
        1, round_to_int(std::ldexp(var_codes, kVarFrac)));
    // Power-of-4 pre-normalization into the RSQRT multi-range span
    // [0.25, 16384): rsqrt(W) = 2^-t · rsqrt(W·2^-2t).
    int t = 0;
    while (std::ldexp(static_cast<double>(w_code), -kVarFrac - 2 * t) >=
           16384.0) {
      ++t;
    }
    w_codes[static_cast<std::size_t>(i)] =
        std::max<std::int64_t>(1, shift_round(w_code, 2 * t));
    prenorm[static_cast<std::size_t>(i)] = t;
  }, kMinRowsPerLane);
  std::vector<double> rsqrts = ws_f64(ctx.ws, static_cast<std::size_t>(n));
  nl.rsqrt_fxp_batch(w_codes, kVarFrac, rsqrts);
  // Pass 2: n_d = c'_d/(D·σ_q); y = γ n + β quantized to the output scale.
  pooled_for(ctx.pool, static_cast<std::size_t>(n), [&](std::size_t row) {
    const int i = static_cast<int>(row);
    const std::int64_t sum = sums[static_cast<std::size_t>(i)];
    const double inv_sigma_q = std::ldexp(
        rsqrts[static_cast<std::size_t>(i)],
        -static_cast<int>(prenorm[static_cast<std::size_t>(i)]));
    for (int d = 0; d < dim_; ++d) {
      const std::int64_t c = static_cast<std::int64_t>(dim_) * x.at(i, d) - sum;
      const double norm = static_cast<double>(c) * inv_sigma_q / dim_;
      const double val = gamma_.at(d) * norm + beta_.at(d);
      y.at(i, d) = static_cast<std::int32_t>(out_qp_.quantize(val));
    }
  }, kMinRowsPerLane);
  ws_release(ctx.ws, std::move(sums));
  ws_release(ctx.ws, std::move(w_codes));
  ws_release(ctx.ws, std::move(prenorm));
  ws_release(ctx.ws, std::move(rsqrts));
  return y;
}

// -------------------------------------------------------------- Softmax ---

Tensor Softmax::forward_fp(const Tensor& rows, const ExecContext& ctx) {
  GQA_EXPECTS(rows.shape().rank() == 2);
  const int n = rows.shape()[0];
  const int m = rows.shape()[1];
  Tensor y = ws_tensor(ctx.ws, rows.shape());
  pooled_for(ctx.pool, static_cast<std::size_t>(n), [&](std::size_t row) {
    const int i = static_cast<int>(row);
    double peak = rows.at(i, 0);
    for (int j = 1; j < m; ++j) peak = std::max<double>(peak, rows.at(i, j));
    double sum = 0.0;
    for (int j = 0; j < m; ++j) {
      const double e = std::exp(rows.at(i, j) - peak);
      y.at(i, j) = static_cast<float>(e);
      sum += e;
    }
    for (int j = 0; j < m; ++j) y.at(i, j) = static_cast<float>(y.at(i, j) / sum);
  }, kMinRowsPerLane);
  return y;
}

QTensor Softmax::forward_int(const QTensor& rows, const NonlinearProvider& nl,
                             const ExecContext& ctx) {
  GQA_EXPECTS(rows.shape().rank() == 2);
  GQA_EXPECTS_MSG(rows.params().scale_is_po2(),
                  "Softmax input scale must be a power of two (§3.1)");
  GQA_EXPECTS_MSG(rows.params().is_signed,
                  "Softmax input codes must be signed (max-subtracted "
                  "differences are non-positive)");
  const int sx = rows.params().po2_exponent();
  const int n = rows.shape()[0];
  const int m = rows.shape()[1];
  QTensor y = ws_qtensor(ctx.ws, rows.shape(), prob_params());
  // exp outputs are exact multiples of 2^(sx - λ); summing then encoding
  // with frac = λ - sx keeps the DIV input bit-exact.
  const int sum_frac = std::min(40, std::max(8, 12 - sx));
  // Row chunks keep the per-lane scratch buffers hoisted out of the row
  // loop (one allocation pair per chunk, as the serial path always had).
  // Chunks running on pool workers may not touch the workspace, so it is
  // used only when the fan-out is inline.
  const ExecContext lane = ctx.lane();
  pooled_for_chunks(
      ctx.pool, static_cast<std::size_t>(n), [&](std::size_t lo, std::size_t hi) {
        std::vector<std::int64_t> diffs =
            ws_i64(lane.ws, static_cast<std::size_t>(m));
        std::vector<double> exps = ws_f64(lane.ws, static_cast<std::size_t>(m));
        // Dispatched row peak (max is order-free) and max-subtracted
        // widening; the exp sum below is a float reduction and must stay
        // scalar (FP addition is not associative).
        const auto row_max = kernel::active().ops.max_i32;
        const auto sub_widen = kernel::active().ops.sub_scalar_widen_i32;
        for (std::size_t row = lo; row < hi; ++row) {
          const int i = static_cast<int>(row);
          const std::int32_t* xrow =
              rows.data().data() + static_cast<std::size_t>(i) * m;
          std::int32_t peak = rows.at(i, 0);
          if (row_max != nullptr) {
            peak = row_max(xrow, static_cast<std::size_t>(m));
          } else {
            for (int j = 1; j < m; ++j) peak = std::max(peak, rows.at(i, j));
          }
          if (sub_widen != nullptr) {
            sub_widen(xrow, peak, diffs.data(), static_cast<std::size_t>(m));
          } else {
            for (int j = 0; j < m; ++j) {
              diffs[static_cast<std::size_t>(j)] =
                  static_cast<std::int64_t>(rows.at(i, j)) - peak;
            }
          }
          // One batched EXP pass per row: the pwl unit is resolved once and
          // the whole row streams through its dense segment table.
          nl.exp_codes(diffs, sx, exps);
          double sum = 0.0;
          for (int j = 0; j < m; ++j) sum += exps[static_cast<std::size_t>(j)];
          const std::int64_t sum_code = std::max<std::int64_t>(
              1, round_to_int(std::ldexp(sum, sum_frac)));
          const double recip = nl.recip_fxp(sum_code, sum_frac);
          for (int j = 0; j < m; ++j) {
            const double p = exps[static_cast<std::size_t>(j)] * recip;
            y.at(i, j) = static_cast<std::int32_t>(prob_params().quantize(p));
          }
        }
        ws_release(lane.ws, std::move(diffs));
        ws_release(lane.ws, std::move(exps));
      },
      kMinRowsPerLane);
  return y;
}

// ----------------------------------------------------------- Activation ---

Tensor Activation::forward_fp(const Tensor& x, const ExecContext& ctx) const {
  Tensor y = ws_tensor(ctx.ws, x.shape());
  // Elementwise op: any contiguous split is exact.
  pooled_for_chunks(ctx.pool, x.data().size(),
                    [&](std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) {
                        y.data()[i] = static_cast<float>(
                            eval_op(op_, static_cast<double>(x.data()[i])));
                      }
                    },
                    kMinElemsPerLane);
  observe(ctx, out_obs_, y);
  return y;
}

QuantParams Activation::freeze(const QuantParams& in_qp,
                               const QuantPolicy& policy) {
  GQA_EXPECTS_MSG(!out_obs_.empty(), "freeze() requires prior calibration");
  GQA_EXPECTS_MSG(in_qp.scale_is_po2(),
                  "activation input scale must be a power of two (§3.1)");
  in_qp_ = in_qp;
  out_qp_ = out_obs_.make_params(policy.act_bits);
  return out_qp_;
}

QTensor Activation::forward_int(const QTensor& x, const NonlinearProvider& nl,
                                const ExecContext& ctx) const {
  GQA_EXPECTS_MSG(x.params() == in_qp_, "input params differ from freeze()");
  const int sx = x.params().po2_exponent();
  QTensor y = ws_qtensor(ctx.ws, x.shape(), out_qp_);
  // Batched activation threaded over contiguous slabs: each slab streams
  // through the dense segment table in one span call (batched ==
  // per-element bit-identical, so any split is exact). The staging buffers
  // are allocated before the fan-out on the calling thread; workers only
  // write disjoint ranges of them.
  const std::size_t count = x.data().size();
  std::vector<std::int64_t> codes = ws_i64(ctx.ws, count);
  std::vector<double> vals = ws_f64(ctx.ws, count);
  pooled_for_chunks(ctx.pool, count, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) codes[i] = x.data()[i];
    const std::span<const std::int64_t> in(codes.data() + lo, hi - lo);
    const std::span<double> out(vals.data() + lo, hi - lo);
    if (op_ == Op::kGelu) {
      nl.gelu_codes(in, sx, out);
    } else {
      nl.hswish_codes(in, sx, out);
    }
    for (std::size_t i = lo; i < hi; ++i) {
      y.data()[i] = static_cast<std::int32_t>(out_qp_.quantize(vals[i]));
    }
  }, kMinElemsPerLane);
  ws_release(ctx.ws, std::move(codes));
  ws_release(ctx.ws, std::move(vals));
  return y;
}

// ---------------------------------------------------------- ResidualAdd ---

Tensor ResidualAdd::forward_fp(const Tensor& a, const Tensor& b,
                               const ExecContext& ctx) const {
  GQA_EXPECTS(a.shape() == b.shape());
  Tensor y = ws_tensor(ctx.ws, a.shape());
  pooled_for_chunks(ctx.pool, a.data().size(),
                    [&](std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) {
                        y.data()[i] = a.data()[i] + b.data()[i];
                      }
                    },
                    kMinElemsPerLane);
  observe(ctx, out_obs_, y);
  return y;
}

QuantParams ResidualAdd::freeze(const QuantParams& a_qp,
                                const QuantParams& b_qp,
                                const QuantPolicy& policy) {
  GQA_EXPECTS_MSG(!out_obs_.empty(), "freeze() requires prior calibration");
  a_qp_ = a_qp;
  b_qp_ = b_qp;
  out_qp_ = out_obs_.make_params(policy.act_bits);
  rq_a_ = Requantizer(a_qp.scale, out_qp_);
  rq_b_ = Requantizer(b_qp.scale, out_qp_);
  return out_qp_;
}

QTensor ResidualAdd::forward_int(const QTensor& a, const QTensor& b,
                                 const ExecContext& ctx) const {
  GQA_EXPECTS(a.shape() == b.shape());
  GQA_EXPECTS_MSG(a.params() == a_qp_,
                  "first operand params differ from freeze()");
  GQA_EXPECTS_MSG(b.params() == b_qp_,
                  "second operand params differ from freeze()");
  QTensor y = ws_qtensor(ctx.ws, a.shape(), out_qp_);
  pooled_for_chunks(
      ctx.pool, a.data().size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::int64_t v =
              rq_a_.apply(a.data()[i]) + rq_b_.apply(b.data()[i]);
          y.data()[i] = static_cast<std::int32_t>(
              saturate(v, out_qp_.bits, out_qp_.is_signed));
        }
      },
      kMinElemsPerLane);
  return y;
}

// ---------------------------------------------------------- AttentionSR ---

AttentionSR::AttentionSR(int dim, int heads, int sr_ratio, Rng& rng)
    : dim_(dim),
      heads_(heads),
      sr_(sr_ratio),
      q_lin_(dim, dim, rng),
      k_lin_(dim, dim, rng),
      v_lin_(dim, dim, rng),
      proj_(dim, dim, rng) {
  GQA_EXPECTS(dim % heads == 0);
  GQA_EXPECTS(sr_ratio >= 1);
  if (sr_ > 1) {
    sr_conv_ = std::make_unique<Conv2d>(dim, dim, sr_, sr_, 0, rng);
  }
}

namespace {

/// Head-sliced score computation: scores[i,j] = q_i · k_j / sqrt(dh).
Tensor head_scores(const Tensor& q, const Tensor& k, int head, int dh,
                   Workspace* ws) {
  const int n = q.shape()[0];
  const int m = k.shape()[0];
  const double inv = 1.0 / std::sqrt(static_cast<double>(dh));
  Tensor s = ws_tensor(ws, Shape{n, m});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      double acc = 0.0;
      for (int d = 0; d < dh; ++d) {
        acc += q.at(i, head * dh + d) * k.at(j, head * dh + d);
      }
      s.at(i, j) = static_cast<float>(acc * inv);
    }
  }
  return s;
}

}  // namespace

Tensor AttentionSR::forward_fp(const Tensor& tokens, int h, int w,
                               const ExecContext& ctx) const {
  Tensor q = q_lin_.forward_fp(tokens, ctx);
  Tensor reduced;
  const Tensor* kv_src = &tokens;
  if (sr_conv_) {
    Tensor map = from_tokens(tokens, h, w, ctx.ws);
    Tensor conv = sr_conv_->forward_fp(map, ctx);
    ws_release(ctx.ws, std::move(map));
    reduced = to_tokens(conv, ctx.ws);
    ws_release(ctx.ws, std::move(conv));
    kv_src = &reduced;
  }
  Tensor k = k_lin_.forward_fp(*kv_src, ctx);
  Tensor v = v_lin_.forward_fp(*kv_src, ctx);
  if (sr_conv_) ws_release(ctx.ws, std::move(reduced));
  const int n = tokens.shape()[0];
  const int dh = dim_ / heads_;
  Tensor attn = ws_tensor(ctx.ws, Shape{n, dim_});
  // Heads are independent and write disjoint attn columns; the per-head
  // work runs serially inside each lane (parallel_for is not reentrant).
  // The workspace backs per-head scratch only when the fan-out is inline.
  const ExecContext lane = ctx.lane();
  pooled_for(ctx.pool, static_cast<std::size_t>(heads_), [&](std::size_t hd) {
    const int head = static_cast<int>(hd);
    Tensor scores = head_scores(q, k, head, dh, lane.ws);
    observe(lane, score_obs_, scores);
    Tensor probs = Softmax::forward_fp(scores, lane);
    ws_release(lane.ws, std::move(scores));
    const int m = probs.shape()[1];
    for (int i = 0; i < n; ++i) {
      for (int d = 0; d < dh; ++d) {
        double acc = 0.0;
        for (int j = 0; j < m; ++j) acc += probs.at(i, j) * v.at(j, head * dh + d);
        attn.at(i, head * dh + d) = static_cast<float>(acc);
      }
    }
    ws_release(lane.ws, std::move(probs));
  });
  observe(ctx, attn_obs_, attn);
  ws_release(ctx.ws, std::move(q));
  ws_release(ctx.ws, std::move(k));
  ws_release(ctx.ws, std::move(v));
  Tensor out = proj_.forward_fp(attn, ctx);
  ws_release(ctx.ws, std::move(attn));
  return out;
}

QuantParams AttentionSR::freeze(const QuantParams& in_qp,
                                const QuantPolicy& policy) {
  const QuantParams q_qp = q_lin_.freeze(in_qp, policy);
  QuantParams kv_in = in_qp;
  if (sr_conv_) kv_in = sr_conv_->freeze(in_qp, policy);
  const QuantParams k_qp = k_lin_.freeze(kv_in, policy);
  const QuantParams v_qp = v_lin_.freeze(kv_in, policy);

  // Scores: accumulator scale Sq·Sk with the 1/sqrt(dh) factor folded into
  // the dyadic requantizer; the Softmax input scale must be po2 (§4.2).
  score_qp_ = score_obs_.make_po2(policy.act_bits);
  const int dh = dim_ / heads_;
  rq_score_ = Requantizer(q_qp.scale * k_qp.scale / std::sqrt(static_cast<double>(dh)),
                          score_qp_);

  attn_qp_ = attn_obs_.make_params(policy.act_bits);
  rq_attn_ = Requantizer(Softmax::prob_params().scale * v_qp.scale, attn_qp_);
  return proj_.freeze(attn_qp_, policy);
}

QTensor AttentionSR::forward_int(const QTensor& tokens, int h, int w,
                                 const NonlinearProvider& nl,
                                 const ExecContext& ctx) const {
  QTensor q = q_lin_.forward_int(tokens, ctx);
  QTensor reduced;
  const QTensor* kv_src = &tokens;
  if (sr_conv_) {
    QTensor map = from_tokens(tokens, h, w, ctx.ws);
    QTensor conv = sr_conv_->forward_int(map, ctx);
    ws_release(ctx.ws, std::move(map));
    reduced = to_tokens(conv, ctx.ws);
    ws_release(ctx.ws, std::move(conv));
    kv_src = &reduced;
  }
  QTensor k = k_lin_.forward_int(*kv_src, ctx);
  QTensor v = v_lin_.forward_int(*kv_src, ctx);
  const int n = tokens.shape()[0];
  const int m = kv_src->shape()[0];
  const int dh = dim_ / heads_;
  if (sr_conv_) ws_release(ctx.ws, std::move(reduced));
  QTensor attn = ws_qtensor(ctx.ws, Shape{n, dim_}, attn_qp_);
  // Heads fan out across the pool: each lane owns its scores/probs buffers
  // and writes a disjoint attn column block, with the provider's EXP/DIV
  // units shared concurrently (the caches are thread-safe). The workspace
  // backs per-head scratch only when the fan-out is inline.
  const ExecContext lane = ctx.lane();
  pooled_for(ctx.pool, static_cast<std::size_t>(heads_), [&](std::size_t hd) {
    const int head = static_cast<int>(hd);
    // Integer scores + requant to the po2 Softmax input scale.
    QTensor scores = ws_qtensor(lane.ws, Shape{n, m}, score_qp_);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        std::int64_t acc = 0;
        for (int d = 0; d < dh; ++d) {
          acc += static_cast<std::int64_t>(q.at(i, head * dh + d)) *
                 k.at(j, head * dh + d);
        }
        scores.at(i, j) = static_cast<std::int32_t>(rq_score_.apply(acc));
      }
    }
    QTensor probs = Softmax::forward_int(scores, nl, lane);
    ws_release(lane.ws, std::move(scores));
    for (int i = 0; i < n; ++i) {
      for (int d = 0; d < dh; ++d) {
        std::int64_t acc = 0;
        for (int j = 0; j < m; ++j) {
          acc += static_cast<std::int64_t>(probs.at(i, j)) *
                 v.at(j, head * dh + d);
        }
        attn.at(i, head * dh + d) = static_cast<std::int32_t>(rq_attn_.apply(acc));
      }
    }
    ws_release(lane.ws, std::move(probs));
  });
  ws_release(ctx.ws, std::move(q));
  ws_release(ctx.ws, std::move(k));
  ws_release(ctx.ws, std::move(v));
  QTensor out = proj_.forward_int(attn, ctx);
  ws_release(ctx.ws, std::move(attn));
  return out;
}

// ------------------------------------------------------ LinearAttention ---

LinearAttention::LinearAttention(int dim, Rng& rng)
    : dim_(dim),
      q_lin_(dim, dim, rng),
      k_lin_(dim, dim, rng),
      v_lin_(dim, dim, rng),
      proj_(dim, dim, rng) {}

namespace {

double relu(double x) { return x > 0.0 ? x : 0.0; }

}  // namespace

Tensor LinearAttention::forward_fp(const Tensor& tokens,
                                   const ExecContext& ctx) const {
  Tensor q = q_lin_.forward_fp(tokens, ctx);
  Tensor k = k_lin_.forward_fp(tokens, ctx);
  Tensor v = v_lin_.forward_fp(tokens, ctx);
  const int n = tokens.shape()[0];
  // kv[c][d] = Σ_n relu(k)·v ; z[c] = Σ_n relu(k). The token reduction is
  // order-sensitive, so it stays serial; rows below are independent.
  Tensor kv = ws_tensor(ctx.ws, Shape{dim_, dim_});
  Tensor z = ws_tensor(ctx.ws, Shape{dim_});
  for (int j = 0; j < n; ++j) {
    for (int c = 0; c < dim_; ++c) {
      const double kc = relu(k.at(j, c));
      if (kc == 0.0) continue;
      z.at(c) += static_cast<float>(kc);
      for (int d = 0; d < dim_; ++d) kv.at(c, d) += static_cast<float>(kc * v.at(j, d));
    }
  }
  Tensor out = ws_tensor(ctx.ws, Shape{n, dim_});
  pooled_for(ctx.pool, static_cast<std::size_t>(n), [&](std::size_t row) {
    const int i = static_cast<int>(row);
    double den = 1e-6;
    for (int c = 0; c < dim_; ++c) den += relu(q.at(i, c)) * z.at(c);
    if (ctx.calibrating) den_obs_.observe(den);
    const double inv = 1.0 / den;
    for (int d = 0; d < dim_; ++d) {
      double num = 0.0;
      for (int c = 0; c < dim_; ++c) num += relu(q.at(i, c)) * kv.at(c, d);
      out.at(i, d) = static_cast<float>(num * inv);
    }
  }, kMinRowsPerLane);
  observe(ctx, out_obs_, out);
  ws_release(ctx.ws, std::move(q));
  ws_release(ctx.ws, std::move(k));
  ws_release(ctx.ws, std::move(v));
  ws_release(ctx.ws, std::move(kv));
  ws_release(ctx.ws, std::move(z));
  Tensor y = proj_.forward_fp(out, ctx);
  ws_release(ctx.ws, std::move(out));
  return y;
}

QuantParams LinearAttention::freeze(const QuantParams& in_qp,
                                    const QuantPolicy& policy) {
  const QuantParams q_qp = q_lin_.freeze(in_qp, policy);
  (void)k_lin_.freeze(in_qp, policy);
  (void)v_lin_.freeze(in_qp, policy);
  (void)q_qp;
  // Pre-scale the denominator into the DIV multi-range span [0.5, 256):
  // recip(x) = 2^g · recip(x·2^g), exact for power-of-two g.
  const double den_peak = std::max(den_obs_.max(), 1e-6);
  den_prescale_exp_ = -std::max(0, nearest_po2_exponent(den_peak) - 6);
  out_qp_ = out_obs_.make_params(policy.act_bits);
  return proj_.freeze(out_qp_, policy);
}

QTensor LinearAttention::forward_int(const QTensor& tokens,
                                     const NonlinearProvider& nl,
                                     const ExecContext& ctx) const {
  QTensor q = q_lin_.forward_int(tokens, ctx);
  QTensor k = k_lin_.forward_int(tokens, ctx);
  QTensor v = v_lin_.forward_int(tokens, ctx);
  const int n = tokens.shape()[0];
  const double sq = q.params().scale;
  const double sk = k.params().scale;
  const double sv = v.params().scale;

  // Integer relu is a clamp at zero (symmetric scales preserve zero).
  std::vector<std::int64_t> kv = ws_i64(ctx.ws, static_cast<std::size_t>(dim_) * dim_);
  std::vector<std::int64_t> z = ws_i64(ctx.ws, static_cast<std::size_t>(dim_));
  for (int j = 0; j < n; ++j) {
    for (int c = 0; c < dim_; ++c) {
      const std::int64_t kc = std::max<std::int64_t>(0, k.at(j, c));
      if (kc == 0) continue;
      z[static_cast<std::size_t>(c)] += kc;
      for (int d = 0; d < dim_; ++d) {
        kv[static_cast<std::size_t>(c) * dim_ + d] += kc * v.at(j, d);
      }
    }
  }

  constexpr int kDenFrac = 16;
  QTensor out = ws_qtensor(ctx.ws, Shape{n, dim_}, out_qp_);
  pooled_for(ctx.pool, static_cast<std::size_t>(n), [&](std::size_t row) {
    const int i = static_cast<int>(row);
    std::int64_t den_acc = 0;
    for (int c = 0; c < dim_; ++c) {
      den_acc += std::max<std::int64_t>(0, q.at(i, c)) *
                 z[static_cast<std::size_t>(c)];
    }
    // den value = den_acc·Sq·Sk; pre-scaled by 2^g into the DIV span.
    const double den_value = std::max(
        1e-6, static_cast<double>(den_acc) * sq * sk);
    const std::int64_t den_code = std::max<std::int64_t>(
        1, round_to_int(std::ldexp(den_value, den_prescale_exp_ + kDenFrac)));
    const double inv =
        std::ldexp(nl.recip_fxp(den_code, kDenFrac), den_prescale_exp_);
    for (int d = 0; d < dim_; ++d) {
      std::int64_t num_acc = 0;
      for (int c = 0; c < dim_; ++c) {
        num_acc += std::max<std::int64_t>(0, q.at(i, c)) *
                   kv[static_cast<std::size_t>(c) * dim_ + d];
      }
      const double value = static_cast<double>(num_acc) * sq * sk * sv * inv;
      out.at(i, d) = static_cast<std::int32_t>(out_qp_.quantize(value));
    }
  }, kMinRowsPerLane);
  ws_release(ctx.ws, std::move(q));
  ws_release(ctx.ws, std::move(k));
  ws_release(ctx.ws, std::move(v));
  ws_release(ctx.ws, std::move(kv));
  ws_release(ctx.ws, std::move(z));
  QTensor y = proj_.forward_int(out, ctx);
  ws_release(ctx.ws, std::move(out));
  return y;
}

// --------------------------------------------------------------- MixFfn ---

MixFfn::MixFfn(int dim, int hidden, Rng& rng)
    : fc1_(dim, hidden, rng),
      fc2_(hidden, dim, rng),
      dw_(hidden, hidden, 3, 1, 1, rng, /*depthwise=*/true),
      act_(Op::kGelu) {
  dw_.set_po2_output(true);  // GELU pwl consumes the dwconv output
}

Tensor MixFfn::forward_fp(const Tensor& tokens, int h, int w,
                          const ExecContext& ctx) const {
  Tensor x = fc1_.forward_fp(tokens, ctx);
  Tensor map = from_tokens(x, h, w, ctx.ws);
  ws_release(ctx.ws, std::move(x));
  Tensor conv = dw_.forward_fp(map, ctx);
  ws_release(ctx.ws, std::move(map));
  Tensor tok = to_tokens(conv, ctx.ws);
  ws_release(ctx.ws, std::move(conv));
  Tensor act = act_.forward_fp(tok, ctx);
  ws_release(ctx.ws, std::move(tok));
  Tensor y = fc2_.forward_fp(act, ctx);
  ws_release(ctx.ws, std::move(act));
  return y;
}

QuantParams MixFfn::freeze(const QuantParams& in_qp,
                           const QuantPolicy& policy) {
  QuantParams qp = fc1_.freeze(in_qp, policy);
  qp = dw_.freeze(qp, policy);
  qp = act_.freeze(qp, policy);
  return fc2_.freeze(qp, policy);
}

QTensor MixFfn::forward_int(const QTensor& tokens, int h, int w,
                            const NonlinearProvider& nl,
                            const ExecContext& ctx) const {
  QTensor x = fc1_.forward_int(tokens, ctx);
  QTensor map = from_tokens(x, h, w, ctx.ws);
  ws_release(ctx.ws, std::move(x));
  QTensor conv = dw_.forward_int(map, ctx);
  ws_release(ctx.ws, std::move(map));
  QTensor tok = to_tokens(conv, ctx.ws);
  ws_release(ctx.ws, std::move(conv));
  QTensor act = act_.forward_int(tok, nl, ctx);
  ws_release(ctx.ws, std::move(tok));
  QTensor y = fc2_.forward_int(act, ctx);
  ws_release(ctx.ws, std::move(act));
  return y;
}

// --------------------------------------------------------------- MbConv ---

MbConv::MbConv(int in_ch, int out_ch, int expand, int stride, Rng& rng)
    : residual_(in_ch == out_ch && stride == 1),
      expand_(in_ch, in_ch * expand, 1, 1, 0, rng),
      dw_(in_ch * expand, in_ch * expand, 3, stride, 1, rng, /*depthwise=*/true),
      project_(in_ch * expand, out_ch, 1, 1, 0, rng),
      act1_(Op::kHswish),
      act2_(Op::kHswish) {
  expand_.set_po2_output(true);  // HSWISH pwl consumes both conv outputs
  dw_.set_po2_output(true);
}

Tensor MbConv::forward_fp(const Tensor& x, const ExecContext& ctx) const {
  Tensor t = expand_.forward_fp(x, ctx);
  Tensor y = act1_.forward_fp(t, ctx);
  ws_release(ctx.ws, std::move(t));
  t = dw_.forward_fp(y, ctx);
  ws_release(ctx.ws, std::move(y));
  y = act2_.forward_fp(t, ctx);
  ws_release(ctx.ws, std::move(t));
  t = project_.forward_fp(y, ctx);
  ws_release(ctx.ws, std::move(y));
  if (!residual_) return t;
  Tensor out = add_.forward_fp(t, x, ctx);
  ws_release(ctx.ws, std::move(t));
  return out;
}

QuantParams MbConv::freeze(const QuantParams& in_qp,
                           const QuantPolicy& policy) {
  QuantParams qp = expand_.freeze(in_qp, policy);
  qp = act1_.freeze(qp, policy);
  qp = dw_.freeze(qp, policy);
  qp = act2_.freeze(qp, policy);
  qp = project_.freeze(qp, policy);
  return residual_ ? add_.freeze(qp, in_qp, policy) : qp;
}

QTensor MbConv::forward_int(const QTensor& x, const NonlinearProvider& nl,
                            const ExecContext& ctx) const {
  QTensor t = expand_.forward_int(x, ctx);
  QTensor y = act1_.forward_int(t, nl, ctx);
  ws_release(ctx.ws, std::move(t));
  t = dw_.forward_int(y, ctx);
  ws_release(ctx.ws, std::move(y));
  y = act2_.forward_int(t, nl, ctx);
  ws_release(ctx.ws, std::move(t));
  t = project_.forward_int(y, ctx);
  ws_release(ctx.ws, std::move(y));
  if (!residual_) return t;
  QTensor out = add_.forward_int(t, x, ctx);
  ws_release(ctx.ws, std::move(t));
  return out;
}

}  // namespace gqa::tfm
