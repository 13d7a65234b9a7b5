// AVX2 backend. This translation unit is compiled with -mavx2 on x86-64
// (see CMakeLists.txt); the runtime CPUID probe keeps hosts without the
// AVX2 bit on the scalar oracle, so nothing here executes unless the CPU
// advertises the extension.
//
// Every kernel is bit-identical to its scalar oracle by construction:
//  - integer sums reorder freely (no overflow inside the bus widths the
//    call sites guarantee), so lane-parallel accumulation is exact;
//  - 32x32->64 signed multiplies (_mm256_mul_epi32) are exact whenever
//    both operands fit int32, which the PwlTableView eligibility
//    invariants and the call-site gates guarantee;
//  - AVX2 has no 64-bit min/max, so saturation clamps are compare+blend
//    against the same BusBounds the scalar clamp_to_bus uses;
//  - int64->double uses the 2^52+2^51 magic-constant trick, exact for
//    |v| < 2^51 (the view guarantees acc fits 50 bits), and the acc_scale
//    multiply is a single-rounded elementwise op — the same operation the
//    scalar path performs;
//  - the GEMM and depthwise kernels accumulate int16-pair products in int32
//    lanes, exact under the exactness gate their callers check
//    (kernel/gemm.h), and run the requantizer in int64 lanes.
// The row kernels end with a scalar tail loop for the n % lane_width rump;
// the GEMM and depthwise kernels compute whole padded tiles and store only
// the valid lanes.
#include "kernel/dispatch.h"

#if defined(__x86_64__) || defined(_M_X64)

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

#include "kernel/gemm.h"
#include "util/contracts.h"

namespace gqa::kernel {

namespace {

bool probe_avx2() { return __builtin_cpu_supports("avx2") != 0; }

/// Scalar replica of one dense-table pwl step (tail elements and the
/// violation re-check). Identical arithmetic to IntPwlUnit::eval_code with
/// the dense segment table: k·q then saturating add of the aligned
/// intercept.
std::int64_t pwl_acc_one(const PwlTableView& t, std::int64_t code) {
  const std::size_t seg = static_cast<std::size_t>(
      t.seg_of_code[static_cast<std::size_t>(code - t.code_lo)]);
  return clamp_to_bus(t.k_code[seg] * code + t.b_aligned[seg], t.acc);
}

/// Throws the oracle's exact precondition when any of the `n` codes is
/// outside the input bus (the vector path detects "some lane bad" and
/// delegates here so the exception carries the same message).
void require_in_bus(const PwlTableView& t, const std::int64_t* q,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    GQA_EXPECTS_MSG(q[i] >= t.in.lo && q[i] <= t.in.hi,
                    "input code exceeds the input bus width");
  }
}

/// Clamp int64 lanes to [lo, hi] (compare+blend; no 64-bit min/max in AVX2).
inline __m256i clamp_epi64(__m256i v, __m256i lo, __m256i hi) {
  v = _mm256_blendv_epi8(v, hi, _mm256_cmpgt_epi64(v, hi));
  v = _mm256_blendv_epi8(v, lo, _mm256_cmpgt_epi64(lo, v));
  return v;
}

/// int64 lanes -> double lanes, exact for |v| < 2^51: integer-adding v to
/// the bit pattern of the double 2^52+2^51 produces the double value
/// 2^52+2^51+v exactly (v lands in the mantissa with ULP 1).
inline __m256d i64_to_f64(__m256i v) {
  const __m256d magic = _mm256_set1_pd(6755399441055744.0);  // 2^52 + 2^51
  const __m256i biased = _mm256_add_epi64(v, _mm256_castpd_si256(magic));
  return _mm256_sub_pd(_mm256_castsi256_pd(biased), magic);
}

/// Core dense-table step for 4 codes: segment gather (1-byte entries via a
/// 4-byte gather + mask; the table is padded with 3 trailing bytes), slope
/// and aligned-intercept gathers, exact 32x32->64 multiply, saturating add.
inline __m256i pwl_gather_acc(const PwlTableView& t, __m256i qv,
                              __m256i code_lo, __m256i acc_lo,
                              __m256i acc_hi) {
  const __m256i idx64 = _mm256_sub_epi64(qv, code_lo);
  // The index fits 17 bits (<= 16-bit bus), so the low dword of each lane
  // is the whole index; compress the 4 low dwords into a __m128i.
  const __m128i idx32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      idx64, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
  __m256i kv, bv;
  if (t.k_of_code != nullptr) {
    kv = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.k_of_code), idx32, 8);
    bv = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_of_code), idx32, 8);
  } else {
    const __m128i seg = _mm_and_si128(
        _mm_i32gather_epi32(reinterpret_cast<const int*>(t.seg_of_code),
                            idx32, 1),
        _mm_set1_epi32(0xFF));
    kv = _mm256_i32gather_epi64(reinterpret_cast<const long long*>(t.k_code),
                                seg, 8);
    bv = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_aligned), seg, 8);
  }
  const __m256i acc = _mm256_add_epi64(_mm256_mul_epi32(kv, qv), bv);
  return clamp_epi64(acc, acc_lo, acc_hi);
}

/// Two independent 4-lane accumulator vectors (an 8-code step).
struct Acc8 {
  __m256i lo;
  __m256i hi;
};

/// 8-code dense-table step: one 8-lane segment gather feeds two
/// independent 4-lane slope/intercept gather chains, so the gather
/// latencies overlap instead of serializing (the 4-code step leaves the
/// gather unit idle between iterations).
inline Acc8 pwl_gather_acc8(const PwlTableView& t, __m256i q0, __m256i q1,
                            __m256i code_lo, __m256i acc_lo, __m256i acc_hi) {
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m128i lo0 = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_sub_epi64(q0, code_lo), perm));
  const __m128i lo1 = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_sub_epi64(q1, code_lo), perm));
  __m256i k0, b0, k1, b1;
  if (t.k_of_code != nullptr) {
    // Small bus: per-code parameter tables — four fully independent
    // gathers, the code index addresses slope and intercept directly.
    k0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.k_of_code), lo0, 8);
    b0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_of_code), lo0, 8);
    k1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.k_of_code), lo1, 8);
    b1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_of_code), lo1, 8);
  } else {
    const __m256i idx32 = _mm256_set_m128i(lo1, lo0);
    const __m256i seg8 = _mm256_and_si256(
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(t.seg_of_code),
                               idx32, 1),
        _mm256_set1_epi32(0xFF));
    const __m128i seg0 = _mm256_castsi256_si128(seg8);
    const __m128i seg1 = _mm256_extracti128_si256(seg8, 1);
    k0 = _mm256_i32gather_epi64(reinterpret_cast<const long long*>(t.k_code),
                                seg0, 8);
    b0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_aligned), seg0, 8);
    k1 = _mm256_i32gather_epi64(reinterpret_cast<const long long*>(t.k_code),
                                seg1, 8);
    b1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_aligned), seg1, 8);
  }
  Acc8 r;
  r.lo = clamp_epi64(_mm256_add_epi64(_mm256_mul_epi32(k0, q0), b0), acc_lo,
                     acc_hi);
  r.hi = clamp_epi64(_mm256_add_epi64(_mm256_mul_epi32(k1, q1), b1), acc_lo,
                     acc_hi);
  return r;
}

void avx2_pwl_eval_codes(const PwlTableView& t, const std::int64_t* q,
                         std::int64_t* out, std::size_t n) {
  const __m256i code_lo = _mm256_set1_epi64x(t.code_lo);
  const __m256i in_lo = _mm256_set1_epi64x(t.in.lo);
  const __m256i in_hi = _mm256_set1_epi64x(t.in.hi);
  const __m256i acc_lo = _mm256_set1_epi64x(t.acc.lo);
  const __m256i acc_hi = _mm256_set1_epi64x(t.acc.hi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i q1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i + 4));
    const __m256i bad = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpgt_epi64(q0, in_hi),
                        _mm256_cmpgt_epi64(in_lo, q0)),
        _mm256_or_si256(_mm256_cmpgt_epi64(q1, in_hi),
                        _mm256_cmpgt_epi64(in_lo, q1)));
    if (!_mm256_testz_si256(bad, bad)) require_in_bus(t, q + i, 8);
    const Acc8 acc = pwl_gather_acc8(t, q0, q1, code_lo, acc_lo, acc_hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), acc.lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), acc.hi);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi64(qv, in_hi),
                                        _mm256_cmpgt_epi64(in_lo, qv));
    if (!_mm256_testz_si256(bad, bad)) require_in_bus(t, q + i, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        pwl_gather_acc(t, qv, code_lo, acc_lo, acc_hi));
  }
  for (; i < n; ++i) {
    require_in_bus(t, q + i, 1);
    out[i] = pwl_acc_one(t, q[i]);
  }
}

void avx2_pwl_eval_reals(const PwlTableView& t, const std::int64_t* q,
                         double* out, std::size_t n) {
  const __m256i code_lo = _mm256_set1_epi64x(t.code_lo);
  const __m256i in_lo = _mm256_set1_epi64x(t.in.lo);
  const __m256i in_hi = _mm256_set1_epi64x(t.in.hi);
  const __m256i acc_lo = _mm256_set1_epi64x(t.acc.lo);
  const __m256i acc_hi = _mm256_set1_epi64x(t.acc.hi);
  const __m256d scale = _mm256_set1_pd(t.acc_scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i q1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i + 4));
    const __m256i bad = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpgt_epi64(q0, in_hi),
                        _mm256_cmpgt_epi64(in_lo, q0)),
        _mm256_or_si256(_mm256_cmpgt_epi64(q1, in_hi),
                        _mm256_cmpgt_epi64(in_lo, q1)));
    if (!_mm256_testz_si256(bad, bad)) require_in_bus(t, q + i, 8);
    const Acc8 acc = pwl_gather_acc8(t, q0, q1, code_lo, acc_lo, acc_hi);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(i64_to_f64(acc.lo), scale));
    _mm256_storeu_pd(out + i + 4, _mm256_mul_pd(i64_to_f64(acc.hi), scale));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi64(qv, in_hi),
                                        _mm256_cmpgt_epi64(in_lo, qv));
    if (!_mm256_testz_si256(bad, bad)) require_in_bus(t, q + i, 4);
    const __m256i acc = pwl_gather_acc(t, qv, code_lo, acc_lo, acc_hi);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(i64_to_f64(acc), scale));
  }
  for (; i < n; ++i) {
    require_in_bus(t, q + i, 1);
    out[i] = static_cast<double>(pwl_acc_one(t, q[i])) * t.acc_scale;
  }
}

void avx2_pwl_eval_reals_sat(const PwlTableView& t, const std::int64_t* q,
                             double* out, std::size_t n) {
  const __m256i code_lo = _mm256_set1_epi64x(t.code_lo);
  const __m256i in_lo = _mm256_set1_epi64x(t.in.lo);
  const __m256i in_hi = _mm256_set1_epi64x(t.in.hi);
  const __m256i acc_lo = _mm256_set1_epi64x(t.acc.lo);
  const __m256i acc_hi = _mm256_set1_epi64x(t.acc.hi);
  const __m256d scale = _mm256_set1_pd(t.acc_scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q0 = clamp_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i)), in_lo,
        in_hi);
    const __m256i q1 = clamp_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i + 4)),
        in_lo, in_hi);
    const Acc8 acc = pwl_gather_acc8(t, q0, q1, code_lo, acc_lo, acc_hi);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(i64_to_f64(acc.lo), scale));
    _mm256_storeu_pd(out + i + 4, _mm256_mul_pd(i64_to_f64(acc.hi), scale));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256i qv = clamp_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i)), in_lo,
        in_hi);
    const __m256i acc = pwl_gather_acc(t, qv, code_lo, acc_lo, acc_hi);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(i64_to_f64(acc), scale));
  }
  for (; i < n; ++i) {
    const std::int64_t code = clamp_to_bus(q[i], t.in);
    out[i] = static_cast<double>(pwl_acc_one(t, code)) * t.acc_scale;
  }
}

std::int64_t avx2_dot_i32_i8(const std::int32_t* a, const std::int8_t* w,
                             std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i wv = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + i)));
    // Exact 32x32->64 products: even dwords directly, odd dwords shuffled
    // into even position first.
    const __m256i even = _mm256_mul_epi32(av, wv);
    const __m256i odd =
        _mm256_mul_epi32(_mm256_shuffle_epi32(av, _MM_SHUFFLE(3, 3, 1, 1)),
                         _mm256_shuffle_epi32(wv, _MM_SHUFFLE(3, 3, 1, 1)));
    acc = _mm256_add_epi64(acc, _mm256_add_epi64(even, odd));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) sum += static_cast<std::int64_t>(a[i]) * w[i];
  return sum;
}

/// The Requantizer epilogue on 8 int32 lanes: clamp_to_bus(shift_round(
/// (bias + acc)·mult, shift), out), in int64 halves. bias·mult and acc·mult
/// are separate exact 32x32->64 products (bias + acc itself may exceed
/// int32); shift_round's half-away-from-zero rounding is a logical shift of
/// |v| + 2^(shift-1) with the sign restored, exact for |v| < 2^62.
struct Requant8 {
  __m256i mult, offset, lo, hi;
  __m128i shift;
  bool shifts;

  Requant8(const Dyadic& rq, BusBounds out)
      : mult(_mm256_set1_epi64x(rq.mult)),
        offset(_mm256_set1_epi64x(rq.shift > 0 ? std::int64_t{1} << (rq.shift - 1)
                                               : 0)),
        lo(_mm256_set1_epi64x(out.lo)),
        hi(_mm256_set1_epi64x(out.hi)),
        shift(_mm_cvtsi32_si128(rq.shift)),
        shifts(rq.shift > 0) {
    GQA_EXPECTS(rq.shift >= 0 && rq.shift < 63);
  }

  [[nodiscard]] __m256i half(__m256i acc64, __m256i bias64) const {
    __m256i v = _mm256_add_epi64(_mm256_mul_epi32(acc64, mult),
                                 _mm256_mul_epi32(bias64, mult));
    if (shifts) {
      const __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), v);
      const __m256i mag = _mm256_sub_epi64(_mm256_xor_si256(v, neg), neg);
      const __m256i r = _mm256_srl_epi64(_mm256_add_epi64(mag, offset), shift);
      v = _mm256_sub_epi64(_mm256_xor_si256(r, neg), neg);
    }
    return clamp_epi64(v, lo, hi);
  }

  [[nodiscard]] __m256i apply(__m256i acc, __m256i bias) const {
    const __m256i r0 = half(_mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc)),
                            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(bias)));
    const __m256i r1 =
        half(_mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc, 1)),
             _mm256_cvtepi32_epi64(_mm256_extracti128_si256(bias, 1)));
    const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    return _mm256_blend_epi32(_mm256_permutevar8x32_epi32(r0, even),
                              _mm256_permutevar8x32_epi32(r1, even), 0xF0);
  }
};

/// One kGemmTileM x kGemmTileN register tile: lane o of column vector c[j]
/// accumulates row o of the weight tile against column j. Each k-pair is
/// one sign-extending weight load and eight broadcast-madd steps.
void avx2_gemm(const GemmView& g, std::size_t tile_lo, std::size_t tile_hi) {
  static_assert(kGemmTileM == 8 && kGemmTileN == 8,
                "the register tile is 8 int32 lanes by 8 columns");
  const int pairs = gemm_pairs(g.depth);
  const Requant8 rq(g.rq, g.out);
  for (std::size_t t = tile_lo; t < tile_hi; ++t) {
    const std::int32_t* xt =
        g.x_panel + t * static_cast<std::size_t>(pairs) * kGemmTileN;
    const int p0 = static_cast<int>(t) * kGemmTileN;
    const int cols = std::min(kGemmTileN, g.n - p0);
    for (int o0 = 0; o0 < g.m; o0 += kGemmTileM) {
      const std::int8_t* wt =
          g.w_panel + static_cast<std::size_t>(o0 / kGemmTileM) * pairs *
                          kGemmTileM * 2;
      __m256i c0 = _mm256_setzero_si256(), c1 = c0, c2 = c0, c3 = c0,
              c4 = c0, c5 = c0, c6 = c0, c7 = c0;
      const std::int32_t* xw = xt;
      for (int j = 0; j < pairs; ++j, wt += kGemmTileM * 2, xw += kGemmTileN) {
        const __m256i w = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(wt)));
        c0 = _mm256_add_epi32(c0, _mm256_madd_epi16(w, _mm256_set1_epi32(xw[0])));
        c1 = _mm256_add_epi32(c1, _mm256_madd_epi16(w, _mm256_set1_epi32(xw[1])));
        c2 = _mm256_add_epi32(c2, _mm256_madd_epi16(w, _mm256_set1_epi32(xw[2])));
        c3 = _mm256_add_epi32(c3, _mm256_madd_epi16(w, _mm256_set1_epi32(xw[3])));
        c4 = _mm256_add_epi32(c4, _mm256_madd_epi16(w, _mm256_set1_epi32(xw[4])));
        c5 = _mm256_add_epi32(c5, _mm256_madd_epi16(w, _mm256_set1_epi32(xw[5])));
        c6 = _mm256_add_epi32(c6, _mm256_madd_epi16(w, _mm256_set1_epi32(xw[6])));
        c7 = _mm256_add_epi32(c7, _mm256_madd_epi16(w, _mm256_set1_epi32(xw[7])));
      }
      const int rows = std::min(kGemmTileM, g.m - o0);
      alignas(32) std::int32_t bias[kGemmTileM] = {};
      std::copy_n(g.bias + o0, rows, bias);
      const __m256i bv = _mm256_load_si256(reinterpret_cast<const __m256i*>(bias));
      alignas(32) std::int32_t tile[kGemmTileN][kGemmTileM];
      const __m256i acc[kGemmTileN] = {c0, c1, c2, c3, c4, c5, c6, c7};
      for (int j = 0; j < cols; ++j) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(tile[j]),
                           rq.apply(acc[j], bv));
      }
      for (int j = 0; j < cols; ++j) {
        std::int32_t* y = g.y + o0 * g.y_stride_m + (p0 + j) * g.y_stride_n;
        for (int o = 0; o < rows; ++o) y[o * g.y_stride_m] = tile[j][o];
      }
    }
  }
}

/// Eight output pixels of one row per step, one 8-lane input window per
/// tap: contiguous for stride 1, the even lanes of two loads for stride 2.
/// Codes fit int16 (the gate), so each int32 lane is an int16 pair (code,
/// sign extension) and madd against the tap pair (w, 0) is code·w exactly.
/// Other strides run the scalar oracle.
void avx2_depthwise(const DepthwiseView& d, std::size_t ch_lo,
                    std::size_t ch_hi) {
  if (d.stride != 1 && d.stride != 2) {
    depthwise_reference(d, ch_lo, ch_hi);
    return;
  }
  const Requant8 rq(d.rq, d.out);
  const std::size_t kk = static_cast<std::size_t>(d.kernel) * d.kernel;
  const std::size_t plane = static_cast<std::size_t>(d.hp) * d.wp;
  const std::size_t pixels = static_cast<std::size_t>(d.oh) * d.ow;
  const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  for (std::size_t ch = ch_lo; ch < ch_hi; ++ch) {
    const std::int8_t* taps = d.w + ch * kk;
    const std::int32_t* x = d.x + ch * plane;
    const __m256i bv = _mm256_set1_epi32(d.bias[ch]);
    for (int oy = 0; oy < d.oh; ++oy) {
      std::int32_t* out = d.y + ch * pixels + static_cast<std::size_t>(oy) * d.ow;
      for (int ox = 0; ox < d.ow; ox += 8) {
        __m256i acc = _mm256_setzero_si256();
        for (int ky = 0; ky < d.kernel; ++ky) {
          const std::int32_t* row =
              x + static_cast<std::size_t>(oy * d.stride + ky) * d.wp +
              static_cast<std::size_t>(ox) * d.stride;
          for (int kx = 0; kx < d.kernel; ++kx) {
            const __m256i w = _mm256_set1_epi32(static_cast<std::uint16_t>(
                taps[static_cast<std::size_t>(ky) * d.kernel + kx]));
            __m256i xv;
            if (d.stride == 1) {
              xv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + kx));
            } else {
              xv = _mm256_blend_epi32(
                  _mm256_permutevar8x32_epi32(
                      _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(row + kx)),
                      even),
                  _mm256_permutevar8x32_epi32(
                      _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(row + kx + 8)),
                      even),
                  0xF0);
            }
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, w));
          }
        }
        const __m256i r = rq.apply(acc, bv);
        if (ox + 8 <= d.ow) {
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + ox), r);
        } else {
          alignas(32) std::int32_t lanes[8];
          _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), r);
          std::copy_n(lanes, d.ow - ox, out + ox);
        }
      }
    }
  }
}

std::int64_t avx2_sum_i32(const std::int32_t* x, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i))));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) sum += x[i];
  return sum;
}

std::int64_t avx2_ssq_centered_i32(const std::int32_t* x, std::int64_t dim,
                                   std::int64_t sum, std::size_t n) {
  const __m256i dimv = _mm256_set1_epi64x(dim);
  const __m256i sumv = _mm256_set1_epi64x(sum);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i xv = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
    // c = dim·x − sum fits int32 (call-site gate), so c·c via the 32-bit
    // multiply is exact.
    const __m256i c = _mm256_sub_epi64(_mm256_mul_epi32(dimv, xv), sumv);
    acc = _mm256_add_epi64(acc, _mm256_mul_epi32(c, c));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t ssq = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    const std::int64_t c = dim * x[i] - sum;
    ssq += c * c;
  }
  return ssq;
}

std::int32_t avx2_max_i32(const std::int32_t* x, std::size_t n) {
  std::int32_t best = x[0];
  std::size_t i = 0;
  if (n >= 8) {
    __m256i mv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
    for (i = 8; i + 8 <= n; i += 8) {
      mv = _mm256_max_epi32(
          mv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)));
    }
    __m128i m = _mm_max_epi32(_mm256_castsi256_si128(mv),
                              _mm256_extracti128_si256(mv, 1));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
    best = _mm_cvtsi128_si32(m);
  }
  for (; i < n; ++i) best = best > x[i] ? best : x[i];
  return best;
}

void avx2_sub_scalar_widen_i32(const std::int32_t* x, std::int32_t sub,
                               std::int64_t* out, std::size_t n) {
  const __m256i sv = _mm256_set1_epi64x(sub);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i xv = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi64(xv, sv));
  }
  for (; i < n; ++i) out[i] = static_cast<std::int64_t>(x[i]) - sub;
}

}  // namespace

const KernelBackend kAvx2Backend{
    .name = "avx2",
    .probe = probe_avx2,
    .ops =
        KernelOps{
            .pwl_eval_codes = avx2_pwl_eval_codes,
            .pwl_eval_reals = avx2_pwl_eval_reals,
            .pwl_eval_reals_sat = avx2_pwl_eval_reals_sat,
            .dot_i32_i8 = avx2_dot_i32_i8,
            .gemm = avx2_gemm,
            .depthwise = avx2_depthwise,
            .sum_i32 = avx2_sum_i32,
            .ssq_centered_i32 = avx2_ssq_centered_i32,
            .max_i32 = avx2_max_i32,
            .sub_scalar_widen_i32 = avx2_sub_scalar_widen_i32,
        },
};

}  // namespace gqa::kernel

#else  // x86-64 built without -mavx2: register an unavailable placeholder

namespace gqa::kernel {

const KernelBackend kAvx2Backend{
    .name = "avx2",
    .probe = [] { return false; },
    .ops = KernelOps{},
};

}  // namespace gqa::kernel

#endif  // __AVX2__

#endif  // __x86_64__ || _M_X64
