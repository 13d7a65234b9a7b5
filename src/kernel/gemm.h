// Packed INT8 GEMM shared by every integer Linear, pointwise and dense
// Conv2d, plus the depthwise conv: the panel packers, the exactness gate
// and the scalar oracles the dispatched `gemm`/`depthwise` ops must match
// byte for byte (see GemmView / DepthwiseView in kernel/dispatch.h for the
// layouts and the epilogue).
//
// The oracles accumulate in int64 and read exactly the panels the
// dispatched kernels read, so they stay exact for every 16-bit input; the
// dispatched kernels accumulate in int32 and are only called on layers that
// pass int32_accumulation_exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kernel/dispatch.h"

namespace gqa::kernel {

/// Number of k-pairs a depth-`depth` reduction packs into.
[[nodiscard]] constexpr int gemm_pairs(int depth) { return (depth + 1) / 2; }

/// Number of kGemmTileN-column tiles covering n columns.
[[nodiscard]] constexpr std::size_t gemm_tiles(int n) {
  return static_cast<std::size_t>((n + kGemmTileN - 1) / kGemmTileN);
}

/// Packs row-major INT8 weights W{m, depth} into the GemmView weight panel.
[[nodiscard]] std::vector<std::int8_t> pack_gemm_weights(
    std::span<const std::int8_t> w, int m, int depth);

/// Words of the GemmView activation panel for a depth × n operand.
[[nodiscard]] std::size_t gemm_x_panel_words(int depth, int n);

/// Offset of word 0 of column p in the activation panel; word j (k-pair j)
/// of that column sits kGemmTileN·j words further on.
[[nodiscard]] inline std::size_t gemm_x_column(int depth, int p) {
  return static_cast<std::size_t>(p / kGemmTileN) * gemm_pairs(depth) *
             kGemmTileN +
         static_cast<std::size_t>(p % kGemmTileN);
}

/// One activation-panel word: two codes (each must fit int16) as its
/// low/high int16 halves.
[[nodiscard]] inline std::int32_t gemm_pair(std::int32_t lo, std::int32_t hi) {
  return static_cast<std::int32_t>(
      (static_cast<std::uint32_t>(lo) & 0xFFFFU) |
      (static_cast<std::uint32_t>(hi) << 16));
}

/// Packs the columns of tiles [tile_lo, tile_hi) of X{depth, n}, read from
/// the strided int32 view X[k,p] = x[k·stride_k + p·stride_n] (row-major
/// tokens: stride_k 1, stride_n depth; channel-major planes: stride_k n,
/// stride_n 1), into the activation panel. Codes must fit int16.
void pack_gemm_x(const std::int32_t* x, std::ptrdiff_t stride_k,
                 std::ptrdiff_t stride_n, int depth, int n,
                 std::int32_t* panel, std::size_t tile_lo,
                 std::size_t tile_hi);

/// Largest Σk|W[o,k]| over the rows of a row-major INT8 matrix W{rows, depth}.
[[nodiscard]] std::int64_t max_row_abs_sum(std::span<const std::int8_t> w,
                                           int rows, int depth);

/// The exactness gate of the int32 kernels: every input code fits an int16
/// lane and max|code| · max_row_abs_sum < 2^31, so no partial sum of any
/// reduction order can overflow int32.
[[nodiscard]] bool int32_accumulation_exact(BusBounds in_codes,
                                            std::int64_t max_row_abs_sum);

/// Scalar oracle of KernelOps::gemm: a plain loop over both panels with
/// int64 accumulation, for the columns of tiles [tile_lo, tile_hi).
void gemm_reference(const GemmView& g, std::size_t tile_lo,
                    std::size_t tile_hi);

/// Scalar oracle of KernelOps::depthwise: a direct loop over the padded
/// planes with int64 accumulation, for channels [ch_lo, ch_hi).
void depthwise_reference(const DepthwiseView& d, std::size_t ch_lo,
                         std::size_t ch_hi);

}  // namespace gqa::kernel
