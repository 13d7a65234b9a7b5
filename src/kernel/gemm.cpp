#include "kernel/gemm.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "util/contracts.h"

namespace gqa::kernel {

namespace {

/// Requantizer::apply on a bias-plus-accumulator value.
std::int32_t requantize(std::int64_t acc, const Dyadic& rq, BusBounds out) {
  return static_cast<std::int32_t>(clamp_to_bus(rq.apply(acc), out));
}

}  // namespace

std::vector<std::int8_t> pack_gemm_weights(std::span<const std::int8_t> w,
                                           int m, int depth) {
  GQA_EXPECTS(m >= 1 && depth >= 1);
  GQA_EXPECTS(w.size() == static_cast<std::size_t>(m) * depth);
  const int pairs = gemm_pairs(depth);
  const int tiles = (m + kGemmTileM - 1) / kGemmTileM;
  std::vector<std::int8_t> panel(
      static_cast<std::size_t>(tiles) * pairs * kGemmTileM * 2, 0);
  for (int o = 0; o < m; ++o) {
    std::int8_t* row = panel.data() +
                       static_cast<std::size_t>(o / kGemmTileM) * pairs *
                           kGemmTileM * 2 +
                       static_cast<std::size_t>(o % kGemmTileM) * 2;
    for (int k = 0; k < depth; ++k) {
      row[static_cast<std::size_t>(k / 2) * kGemmTileM * 2 + k % 2] =
          w[static_cast<std::size_t>(o) * depth + k];
    }
  }
  return panel;
}

std::size_t gemm_x_panel_words(int depth, int n) {
  return gemm_tiles(n) * static_cast<std::size_t>(gemm_pairs(depth)) *
         kGemmTileN;
}

void pack_gemm_x(const std::int32_t* x, std::ptrdiff_t stride_k,
                 std::ptrdiff_t stride_n, int depth, int n,
                 std::int32_t* panel, std::size_t tile_lo,
                 std::size_t tile_hi) {
  const int p_hi = std::min(n, static_cast<int>(tile_hi) * kGemmTileN);
  for (int p = static_cast<int>(tile_lo) * kGemmTileN; p < p_hi; ++p) {
    const std::int32_t* src = x + p * stride_n;
    std::int32_t* col = panel + gemm_x_column(depth, p);
    int k = 0;
    for (; k + 1 < depth; k += 2, col += kGemmTileN) {
      *col = gemm_pair(src[k * stride_k], src[(k + 1) * stride_k]);
    }
    if (k < depth) *col = gemm_pair(src[k * stride_k], 0);
  }
}

std::int64_t max_row_abs_sum(std::span<const std::int8_t> w, int rows,
                             int depth) {
  GQA_EXPECTS(w.size() == static_cast<std::size_t>(rows) * depth);
  std::int64_t peak = 0;
  for (int o = 0; o < rows; ++o) {
    std::int64_t sum = 0;
    for (int k = 0; k < depth; ++k) {
      sum += std::abs(static_cast<int>(w[static_cast<std::size_t>(o) * depth + k]));
    }
    peak = std::max(peak, sum);
  }
  return peak;
}

bool int32_accumulation_exact(BusBounds in_codes,
                              std::int64_t max_row_abs_sum) {
  if (in_codes.lo < std::numeric_limits<std::int16_t>::min() ||
      in_codes.hi > std::numeric_limits<std::int16_t>::max()) {
    return false;
  }
  const std::int64_t max_code = std::max(-in_codes.lo, in_codes.hi);
  return max_code * max_row_abs_sum <= std::numeric_limits<std::int32_t>::max();
}

void gemm_reference(const GemmView& g, std::size_t tile_lo,
                    std::size_t tile_hi) {
  const int pairs = gemm_pairs(g.depth);
  const int p_hi = std::min(g.n, static_cast<int>(tile_hi) * kGemmTileN);
  for (int p = static_cast<int>(tile_lo) * kGemmTileN; p < p_hi; ++p) {
    const std::int32_t* col = g.x_panel + gemm_x_column(g.depth, p);
    for (int o = 0; o < g.m; ++o) {
      const std::int8_t* row =
          g.w_panel +
          static_cast<std::size_t>(o / kGemmTileM) * pairs * kGemmTileM * 2 +
          static_cast<std::size_t>(o % kGemmTileM) * 2;
      std::int64_t acc = g.bias[o];
      for (int j = 0; j < pairs; ++j) {
        const std::int32_t word = col[static_cast<std::size_t>(j) * kGemmTileN];
        const std::int8_t* w = row + static_cast<std::size_t>(j) * kGemmTileM * 2;
        acc += static_cast<std::int64_t>(w[0]) * static_cast<std::int16_t>(word) +
               static_cast<std::int64_t>(w[1]) * static_cast<std::int16_t>(word >> 16);
      }
      g.y[o * g.y_stride_m + p * g.y_stride_n] = requantize(acc, g.rq, g.out);
    }
  }
}

void depthwise_reference(const DepthwiseView& d, std::size_t ch_lo,
                         std::size_t ch_hi) {
  const std::size_t kk = static_cast<std::size_t>(d.kernel) * d.kernel;
  const std::size_t plane = static_cast<std::size_t>(d.hp) * d.wp;
  const std::size_t pixels = static_cast<std::size_t>(d.oh) * d.ow;
  for (std::size_t ch = ch_lo; ch < ch_hi; ++ch) {
    const std::int8_t* taps = d.w + ch * kk;
    std::int32_t* out = d.y + ch * pixels;
    for (int oy = 0; oy < d.oh; ++oy) {
      for (int ox = 0; ox < d.ow; ++ox) {
        const std::int32_t* win = d.x + ch * plane +
                                  static_cast<std::size_t>(oy) * d.stride * d.wp +
                                  static_cast<std::size_t>(ox) * d.stride;
        std::int64_t acc = d.bias[ch];
        for (int ky = 0; ky < d.kernel; ++ky) {
          for (int kx = 0; kx < d.kernel; ++kx) {
            acc += static_cast<std::int64_t>(
                       win[static_cast<std::size_t>(ky) * d.wp + kx]) *
                   taps[static_cast<std::size_t>(ky) * d.kernel + kx];
          }
        }
        *out++ = requantize(acc, d.rq, d.out);
      }
    }
  }
}

}  // namespace gqa::kernel
