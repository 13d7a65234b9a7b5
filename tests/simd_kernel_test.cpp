// Differential conformance suite for the runtime-dispatched SIMD kernel
// backends (kernel/dispatch.h): every registered non-scalar backend is run
// against the scalar oracle and must match code-for-code and bit-for-bit —
// across bus widths 4..16, span lengths covering every vector-tail residue,
// unaligned span offsets, saturation boundary codes, and extreme (shifter-
// limit) scale exponents. Hosts whose probe rejects a backend SKIP loudly;
// a host with no SIMD backend at all skips the differential tests rather
// than letting them pass silently against nothing.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/dispatch.h"
#include "kernel/gemm.h"
#include "kernel/int_pwl_unit.h"
#include "pwl/quantized_table.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gqa {
namespace {

using kernel::BackendScope;
using kernel::KernelBackend;

PwlTable gelu_like_table() {
  PwlTable t;
  t.breakpoints = {-2.75, -1.5, -0.75, -0.25, 0.25, 1.0, 2.0};
  t.slopes = {0.0, -0.0625, 0.03125, 0.34375, 0.65625, 0.96875, 1.03125, 1.0};
  t.intercepts = {0.0, -0.15625, 0.0, 0.21875, 0.0, -0.09375, -0.15625, 0.0};
  return t;
}

IntPwlUnit make_unit(int bits, int scale_exp) {
  const QuantParams input{std::ldexp(1.0, scale_exp), bits, true};
  return IntPwlUnit(quantize_table(gelu_like_table(), input, 5, 8));
}

/// Non-scalar backends whose capability probe passes on this host.
std::vector<const KernelBackend*> available_simd_backends() {
  std::vector<const KernelBackend*> out;
  for (const KernelBackend* b : kernel::registry()) {
    if (std::string(b->name) != "scalar" && kernel::backend_available(*b)) {
      out.push_back(b);
    }
  }
  return out;
}

/// Registered backends the host cannot run must be reported, never silently
/// skipped inside loops — tests use this to emit one visible SKIP.
std::vector<std::string> unavailable_backend_names() {
  std::vector<std::string> out;
  for (const KernelBackend* b : kernel::registry()) {
    if (!kernel::backend_available(*b)) out.emplace_back(b->name);
  }
  return out;
}

#define GQA_SKIP_WITHOUT_SIMD_BACKEND(backends)                            \
  do {                                                                     \
    if ((backends).empty()) {                                              \
      GTEST_SKIP() << "no runnable SIMD backend on this host (scalar "     \
                      "oracle only); nothing to differentiate";            \
    }                                                                      \
  } while (false)

/// Codes covering the interesting structure of a `bits`-wide bus: both
/// saturation boundaries, the breakpoint span, and seeded uniform fill.
std::vector<std::int64_t> make_codes(Rng& rng, int bits, std::size_t len) {
  const std::int64_t lo = int_min(bits, true);
  const std::int64_t hi = int_max(bits, true);
  std::vector<std::int64_t> codes(len);
  for (std::size_t i = 0; i < len; ++i) codes[i] = rng.uniform_int(lo, hi);
  if (len >= 1) codes[0] = lo;
  if (len >= 2) codes[1] = hi;
  if (len >= 3) codes[len - 1] = hi;  // boundary in a vector-tail position
  return codes;
}

/// Runs `fn(q_span, out_span)` with the spans placed at `offset` inside
/// oversized buffers, so the vector loops see unaligned bases.
template <typename Out, typename Fn>
std::vector<Out> eval_at_offset(const std::vector<std::int64_t>& codes,
                                std::size_t offset, const Fn& fn) {
  std::vector<std::int64_t> in(codes.size() + offset + 4, 0);
  std::vector<Out> out(codes.size() + offset + 4, Out{});
  std::copy(codes.begin(), codes.end(), in.begin() + offset);
  fn(std::span<const std::int64_t>(in.data() + offset, codes.size()),
     std::span<Out>(out.data() + offset, codes.size()));
  return {out.begin() + static_cast<std::ptrdiff_t>(offset),
          out.begin() + static_cast<std::ptrdiff_t>(offset + codes.size())};
}

TEST(SimdBackendRegistry, ScalarAlwaysRegisteredAndLast) {
  const auto& backends = kernel::registry();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(std::string(backends.back()->name), "scalar");
  EXPECT_TRUE(kernel::backend_available(*backends.back()));
  // `auto` resolves to something runnable on every host.
  EXPECT_TRUE(kernel::backend_available(kernel::resolve_backend("auto")));
  // Only `scalar` may be the all-null table: any other registered backend
  // must vectorize at least one op, or it is a name without a kernel.
  using OpBytes = std::array<std::byte, sizeof(kernel::KernelOps)>;
  const OpBytes all_null = std::bit_cast<OpBytes>(kernel::KernelOps{});
  for (const KernelBackend* b : backends) {
    if (std::string(b->name) == "scalar") continue;
    EXPECT_NE(std::bit_cast<OpBytes>(b->ops), all_null)
        << "backend '" << b->name << "' sets no op";
  }
}

TEST(SimdBackendRegistry, UnknownOrUnavailableNamesFailLoudly) {
  EXPECT_THROW((void)kernel::resolve_backend("avx1999"), ContractViolation);
  for (const std::string& name : unavailable_backend_names()) {
    EXPECT_THROW((void)kernel::resolve_backend(name), ContractViolation)
        << "naming unavailable backend '" << name
        << "' must fail, not silently fall back to scalar";
  }
}

TEST(SimdBackendRegistry, BackendScopeRestoresPreviousBackend) {
  const std::string before = kernel::active().name;
  {
    BackendScope scalar("scalar");
    EXPECT_EQ(std::string(kernel::active().name), "scalar");
  }
  EXPECT_EQ(std::string(kernel::active().name), before);
}

// Every registered-but-unrunnable backend shows up as a SKIP here (one test
// per host state), so CI output never silently passes a backend it never
// executed.
TEST(SimdBackendRegistry, ReportsBackendsThisHostCannotRun) {
  const std::vector<std::string> missing = unavailable_backend_names();
  if (!missing.empty()) {
    std::string joined;
    for (const std::string& name : missing) joined += name + " ";
    GTEST_SKIP() << "backends compiled in but not runnable here: " << joined;
  }
  SUCCEED();
}

TEST(SimdPwlDifferential, EvalCodesBitIdenticalAcrossWidthsAndResidues) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0x51D0);
  for (const KernelBackend* backend : backends) {
    for (int bits = 4; bits <= 16; ++bits) {
      // Scale exponents at both shifter extremes: -16 is the barrel-shift
      // limit (b << 16 saturates hard), 0 exercises the negative-shift
      // rounding path, -6 is a paper-typical activation scale.
      for (const int scale_exp : {0, -6, -16}) {
        const IntPwlUnit unit = make_unit(bits, scale_exp);
        // Lengths 0..9 hit every tail residue of 4- and 8-wide lanes (and
        // the empty span); 67 adds a long span with a 3-residue tail.
        for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{4}, std::size_t{5},
                                std::size_t{6}, std::size_t{7}, std::size_t{8},
                                std::size_t{9}, std::size_t{67}}) {
          const std::vector<std::int64_t> codes = make_codes(rng, bits, len);
          const std::size_t offset = len % 4;
          std::vector<std::int64_t> expected, actual;
          {
            BackendScope scope("scalar");
            expected = eval_at_offset<std::int64_t>(
                codes, offset, [&](auto in, auto out) { unit.eval_codes(in, out); });
          }
          {
            BackendScope scope(backend->name);
            actual = eval_at_offset<std::int64_t>(
                codes, offset, [&](auto in, auto out) { unit.eval_codes(in, out); });
          }
          ASSERT_EQ(expected, actual)
              << backend->name << " bits=" << bits << " S=2^" << scale_exp
              << " len=" << len << " offset=" << offset;
        }
      }
    }
  }
}

TEST(SimdPwlDifferential, RealEvalsBitIdenticalIncludingSaturation) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0xB17C0DE);
  for (const KernelBackend* backend : backends) {
    for (int bits = 4; bits <= 16; bits += 3) {
      for (const int scale_exp : {-1, -6, -16}) {
        const IntPwlUnit unit = make_unit(bits, scale_exp);
        for (std::size_t len = 1; len <= 13; ++len) {
          std::vector<std::int64_t> codes = make_codes(rng, bits, len);
          const std::size_t offset = (len + 1) % 4;
          auto check = [&](const char* what, const auto& eval) {
            std::vector<double> expected, actual;
            {
              BackendScope scope("scalar");
              expected = eval_at_offset<double>(codes, offset, eval);
            }
            {
              BackendScope scope(backend->name);
              actual = eval_at_offset<double>(codes, offset, eval);
            }
            ASSERT_EQ(expected.size(), actual.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
              // Bit-for-bit, not just value-equal.
              ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
                        std::bit_cast<std::uint64_t>(actual[i]))
                  << what << " " << backend->name << " bits=" << bits
                  << " S=2^" << scale_exp << " len=" << len << " i=" << i
                  << " q=" << codes[i];
            }
          };
          check("eval_reals_from_codes", [&](auto in, auto out) {
            unit.eval_reals_from_codes(in, out);
          });
          // Over-range codes (the saturated entry point's whole reason to
          // exist): both immediate neighbours of the bus edge and far
          // out-of-range magnitudes.
          codes[0] = int_max(bits, true) + 1;
          if (len >= 2) codes[1] = int_min(bits, true) - 1;
          if (len >= 3) codes[2] = std::int64_t{1} << 40;
          if (len >= 4) codes[3] = -(std::int64_t{1} << 40);
          check("eval_reals_from_codes_saturated", [&](auto in, auto out) {
            unit.eval_reals_from_codes_saturated(in, out);
          });
        }
      }
    }
  }
}

TEST(SimdPwlDifferential, OverRangeCodeThrowsUnderEveryBackend) {
  for (const KernelBackend* backend : kernel::registry()) {
    if (!kernel::backend_available(*backend)) continue;
    BackendScope scope(backend->name);
    const IntPwlUnit unit = make_unit(8, -2);
    // A violating code in a vector body position and in a tail position.
    const std::vector<std::int64_t> body = {1, 2, 3, 128, 4, 5, 6, 7};
    const std::vector<std::int64_t> tail = {1, 2, 3, 4, -129};
    std::vector<std::int64_t> out(body.size());
    std::vector<std::int64_t> out_tail(tail.size());
    EXPECT_THROW(unit.eval_codes(body, out), ContractViolation)
        << backend->name;
    EXPECT_THROW(unit.eval_codes(tail, out_tail), ContractViolation)
        << backend->name;
  }
}

TEST(SimdPwlDifferential, WideBusFallbackIsBackendInvariant) {
  // >16-bit buses have no dense table and must stay on the scalar
  // binary-search fallback under every backend — identical results, no
  // dispatch.
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  const QuantParams input{std::ldexp(1.0, -12), 18, true};
  const IntPwlUnit unit(quantize_table(gelu_like_table(), input, 5, 8));
  std::vector<std::int64_t> codes;
  for (std::int64_t q = -131072; q <= 131071; q += 4099) codes.push_back(q);
  std::vector<std::int64_t> expected(codes.size());
  {
    BackendScope scope("scalar");
    unit.eval_codes(codes, expected);
  }
  for (const KernelBackend* backend : backends) {
    BackendScope scope(backend->name);
    std::vector<std::int64_t> actual(codes.size());
    unit.eval_codes(codes, actual);
    EXPECT_EQ(expected, actual) << backend->name;
  }
}

// ------------------------------------------------------- row kernel ops ---

TEST(SimdRowKernelDifferential, DotProductMatchesScalarReference) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0xD07);
  for (const KernelBackend* backend : backends) {
    if (backend->ops.dot_i32_i8 == nullptr) continue;
    for (std::size_t len = 0; len <= 33; ++len) {
      for (std::size_t offset = 0; offset <= 3; ++offset) {
        std::vector<std::int32_t> a(len + offset + 8, 0);
        std::vector<std::int8_t> w(len + offset + 8, 0);
        for (std::size_t i = 0; i < a.size(); ++i) {
          a[i] = static_cast<std::int32_t>(rng.uniform_int(-32768, 32767));
          w[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
        if (len >= 2) {  // activation/weight extremes in-lane
          a[offset] = 32767;
          w[offset] = -128;
          a[offset + len - 1] = -32768;
          w[offset + len - 1] = 127;
        }
        std::int64_t expected = 0;
        for (std::size_t i = 0; i < len; ++i) {
          expected += static_cast<std::int64_t>(a[offset + i]) * w[offset + i];
        }
        EXPECT_EQ(expected,
                  backend->ops.dot_i32_i8(a.data() + offset, w.data() + offset,
                                          len))
            << backend->name << " len=" << len << " offset=" << offset;
      }
    }
  }
}

TEST(SimdRowKernelDifferential, SumSsqMatchScalarReference) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0xA6B);
  for (const KernelBackend* backend : backends) {
    for (std::size_t len = 0; len <= 21; ++len) {
      for (std::size_t offset = 0; offset <= 3; ++offset) {
        std::vector<std::int32_t> x(len + offset + 4, 0);
        for (std::size_t i = 0; i < x.size(); ++i) {
          x[i] = static_cast<std::int32_t>(rng.uniform_int(-2048, 2047));
        }
        const std::int32_t* xs = x.data() + offset;
        if (backend->ops.sum_i32 != nullptr) {
          std::int64_t expected = 0;
          for (std::size_t i = 0; i < len; ++i) expected += xs[i];
          EXPECT_EQ(expected, backend->ops.sum_i32(xs, len))
              << backend->name << " len=" << len << " offset=" << offset;
        }
        if (backend->ops.ssq_centered_i32 != nullptr && len > 0) {
          const std::int64_t dim = static_cast<std::int64_t>(len);
          std::int64_t sum = 0;
          for (std::size_t i = 0; i < len; ++i) sum += xs[i];
          std::int64_t expected = 0;
          for (std::size_t i = 0; i < len; ++i) {
            const std::int64_t c = dim * xs[i] - sum;
            expected += c * c;
          }
          EXPECT_EQ(expected, backend->ops.ssq_centered_i32(xs, dim, sum, len))
              << backend->name << " len=" << len << " offset=" << offset;
        }
      }
    }
  }
}

TEST(SimdRowKernelDifferential, MaxAndSubWidenMatchScalarReference) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0x3A1);
  for (const KernelBackend* backend : backends) {
    for (std::size_t len = 1; len <= 37; ++len) {
      for (std::size_t offset = 0; offset <= 3; ++offset) {
        std::vector<std::int32_t> x(len + offset + 8, 0);
        for (std::size_t i = 0; i < x.size(); ++i) {
          x[i] = static_cast<std::int32_t>(
              rng.uniform_int(std::numeric_limits<std::int32_t>::min(),
                              std::numeric_limits<std::int32_t>::max()));
        }
        const std::int32_t* xs = x.data() + offset;
        std::int32_t peak = xs[0];
        for (std::size_t i = 1; i < len; ++i) peak = std::max(peak, xs[i]);
        if (backend->ops.max_i32 != nullptr) {
          EXPECT_EQ(peak, backend->ops.max_i32(xs, len))
              << backend->name << " len=" << len << " offset=" << offset;
        }
        if (backend->ops.sub_scalar_widen_i32 != nullptr) {
          std::vector<std::int64_t> out(len, 0);
          backend->ops.sub_scalar_widen_i32(xs, peak, out.data(), len);
          for (std::size_t i = 0; i < len; ++i) {
            ASSERT_EQ(static_cast<std::int64_t>(xs[i]) - peak, out[i])
                << backend->name << " len=" << len << " offset=" << offset
                << " i=" << i;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------- GEMM/depthwise ---

/// Random codes on a `bits`-wide signed bus with both extremes planted.
std::vector<std::int32_t> random_codes(Rng& rng, int bits, std::size_t len) {
  const std::int64_t lo = int_min(bits, true);
  const std::int64_t hi = int_max(bits, true);
  std::vector<std::int32_t> v(len);
  for (auto& c : v) c = static_cast<std::int32_t>(rng.uniform_int(lo, hi));
  if (len >= 2) {
    v[0] = static_cast<std::int32_t>(lo);
    v[len - 1] = static_cast<std::int32_t>(hi);
  }
  return v;
}

std::vector<std::int8_t> random_weights(Rng& rng, std::size_t len) {
  std::vector<std::int8_t> w(len);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  if (len >= 2) {
    w[0] = -128;
    w[len - 1] = 127;
  }
  return w;
}

/// The requantizer epilogue both kernels share: Requantizer::apply.
std::int32_t requantize(std::int64_t acc, const Dyadic& rq, BusBounds out) {
  return static_cast<std::int32_t>(clamp_to_bus(rq.apply(acc), out));
}

/// One GEMM problem in the two strided activation layouts the layers pack
/// from: row-major tokens (Linear; y {n, m}) or channel-major planes
/// (pointwise conv; y {m, n}).
struct GemmProblem {
  int m, n, depth, bits;
  bool channel_major;
  Dyadic rq;
  BusBounds out;
  std::vector<std::int8_t> w;    ///< row-major {m, depth}
  std::vector<std::int32_t> x;   ///< strided view of X{depth, n}
  std::vector<std::int32_t> bias;

  [[nodiscard]] std::ptrdiff_t stride_k() const { return channel_major ? n : 1; }
  [[nodiscard]] std::ptrdiff_t stride_n() const { return channel_major ? 1 : depth; }

  /// Plain int64 triple loop over the unpacked operands.
  [[nodiscard]] std::vector<std::int32_t> naive() const {
    std::vector<std::int32_t> y(static_cast<std::size_t>(m) * n);
    for (int o = 0; o < m; ++o) {
      for (int p = 0; p < n; ++p) {
        std::int64_t acc = bias[static_cast<std::size_t>(o)];
        for (int k = 0; k < depth; ++k) {
          acc += static_cast<std::int64_t>(w[static_cast<std::size_t>(o) * depth + k]) *
                 x[static_cast<std::size_t>(k * stride_k() + p * stride_n())];
        }
        y[static_cast<std::size_t>(channel_major ? o * n + p : p * m + o)] =
            requantize(acc, rq, out);
      }
    }
    return y;
  }

  /// Packs both panels (one column tile at a time) and runs `gemm` tile by
  /// tile, then over the whole range, asserting the two agree.
  template <typename Gemm>
  [[nodiscard]] std::vector<std::int32_t> run(const Gemm& gemm) const {
    const std::vector<std::int8_t> wp = kernel::pack_gemm_weights(w, m, depth);
    std::vector<std::int32_t> xp(kernel::gemm_x_panel_words(depth, n), 0);
    const std::size_t tiles = kernel::gemm_tiles(n);
    for (std::size_t t = 0; t < tiles; ++t) {
      kernel::pack_gemm_x(x.data(), stride_k(), stride_n(), depth, n,
                          xp.data(), t, t + 1);
    }
    std::vector<std::int32_t> y(static_cast<std::size_t>(m) * n, -7);
    kernel::GemmView g{.w_panel = wp.data(),
                       .x_panel = xp.data(),
                       .bias = bias.data(),
                       .m = m,
                       .n = n,
                       .depth = depth,
                       .rq = rq,
                       .out = out,
                       .y = y.data(),
                       .y_stride_m = channel_major ? n : 1,
                       .y_stride_n = channel_major ? 1 : m};
    for (std::size_t t = 0; t < tiles; ++t) gemm(g, t, t + 1);
    std::vector<std::int32_t> whole(y.size(), -7);
    g.y = whole.data();
    gemm(g, 0, tiles);
    EXPECT_EQ(y, whole) << "tile-by-tile and whole-range runs differ";
    return y;
  }
};

GemmProblem make_gemm(Rng& rng, int m, int n, int depth, int bits,
                      bool channel_major) {
  GemmProblem p{m, n, depth, bits, channel_major, {}, {}, {}, {}, {}};
  p.w = random_weights(rng, static_cast<std::size_t>(m) * depth);
  p.x = random_codes(rng, bits, static_cast<std::size_t>(depth) * n);
  p.bias = random_codes(rng, 20, static_cast<std::size_t>(m));
  // Scale so typical outputs land mid-bus and the extremes saturate.
  const double typical = std::ldexp(1.0, bits - 1) * 64.0 * std::sqrt(depth);
  p.rq = Dyadic::from_real(200.0 / typical);
  p.out = bus_bounds(8, true);
  return p;
}

TEST(SimdGemmDifferential, ReferenceMatchesPlainLoopOverUnpackedOperands) {
  // The oracle reads the packed panels, so it also proves both packers.
  Rng rng(0x6E3);
  for (const bool channel_major : {false, true}) {
    for (const int m : {1, 3, 4, 17}) {
      for (const int n : {1, 5, 8, 13}) {
        for (const int depth : {1, 2, 7, 33}) {
          const GemmProblem p = make_gemm(rng, m, n, depth, 8, channel_major);
          EXPECT_EQ(p.naive(), p.run(kernel::gemm_reference))
              << "m=" << m << " n=" << n << " depth=" << depth
              << " channel_major=" << channel_major;
        }
      }
    }
  }
}

TEST(SimdGemmDifferential, DispatchedGemmMatchesOracleOnTailsAndExtremes) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0x6E4);
  for (const KernelBackend* backend : backends) {
    ASSERT_NE(backend->ops.gemm, nullptr) << backend->name;
    for (const bool channel_major : {false, true}) {
      for (const int m : {1, 3, 4, 17}) {
        for (const int n : {1, 5, 8, 13, 17}) {
          for (const int depth : {1, 2, 7, 33, 147}) {
            GemmProblem p = make_gemm(rng, m, n, depth, 8, channel_major);
            // shift 0 (a large ratio) takes the epilogue's no-rounding path.
            if (depth == 7) p.rq = Dyadic::from_real(40000.0);
            ASSERT_TRUE(kernel::int32_accumulation_exact(
                bus_bounds(8, true),
                kernel::max_row_abs_sum(p.w, m, depth)));
            EXPECT_EQ(p.run(kernel::gemm_reference), p.run(backend->ops.gemm))
                << backend->name << " m=" << m << " n=" << n
                << " depth=" << depth << " channel_major=" << channel_major;
          }
        }
      }
    }
  }
}

TEST(SimdGemmDifferential, SixteenBitGateIsTight) {
  // All codes -2^15 against all weights -128: the row sum is exactly
  // 2^22·depth. depth 511 is the widest reduction the gate admits, and its
  // sum still fits int32; at depth 512 it reaches 2^31 and the gate refuses.
  const auto backends = available_simd_backends();
  const BusBounds bus16 = bus_bounds(16, true);
  for (const int depth : {511, 512}) {
    for (const bool channel_major : {false, true}) {
      Rng rng(0x6E5);
      GemmProblem p = make_gemm(rng, 3, 9, depth, 16, channel_major);
      std::fill(p.w.begin(), p.w.end(), std::int8_t{-128});
      std::fill(p.x.begin(), p.x.end(), static_cast<std::int32_t>(bus16.lo));
      p.rq = Dyadic::from_real(1.0 / 65536.0);
      p.out = bus_bounds(16, true);
      const bool exact = kernel::int32_accumulation_exact(
          bus16, kernel::max_row_abs_sum(p.w, p.m, depth));
      EXPECT_EQ(exact, depth == 511);
      EXPECT_EQ(p.naive(), p.run(kernel::gemm_reference)) << "depth=" << depth;
      if (!exact) continue;
      for (const KernelBackend* backend : backends) {
        EXPECT_EQ(p.run(kernel::gemm_reference), p.run(backend->ops.gemm))
            << backend->name << " depth=" << depth;
      }
    }
  }
  // Codes that do not fit an int16 lane never pass.
  EXPECT_FALSE(kernel::int32_accumulation_exact(bus_bounds(17, true), 1));
  EXPECT_FALSE(kernel::int32_accumulation_exact(bus_bounds(16, false), 1));
}

/// One depthwise problem: zero-padded planes with the kernels' slack.
struct DepthwiseProblem {
  int channels, h, w, kernel, stride, pad;
  std::vector<std::int32_t> padded;
  std::vector<std::int8_t> taps;
  std::vector<std::int32_t> bias;
  Dyadic rq;
  BusBounds out;

  [[nodiscard]] int hp() const { return h + 2 * pad; }
  [[nodiscard]] int wp() const { return w + 2 * pad; }
  [[nodiscard]] int oh() const { return (hp() - kernel) / stride + 1; }
  [[nodiscard]] int ow() const { return (wp() - kernel) / stride + 1; }

  template <typename Fn>
  [[nodiscard]] std::vector<std::int32_t> run(const Fn& fn) const {
    std::vector<std::int32_t> y(static_cast<std::size_t>(channels) * oh() * ow(), -7);
    const kernel::DepthwiseView d{.x = padded.data(),
                                  .hp = hp(),
                                  .wp = wp(),
                                  .w = taps.data(),
                                  .bias = bias.data(),
                                  .kernel = kernel,
                                  .stride = stride,
                                  .oh = oh(),
                                  .ow = ow(),
                                  .rq = rq,
                                  .out = out,
                                  .y = y.data()};
    fn(d, 0, static_cast<std::size_t>(channels));
    return y;
  }
};

DepthwiseProblem make_depthwise(Rng& rng, int h, int w, int kernel, int stride,
                                int bits) {
  DepthwiseProblem p{3, h, w, kernel, stride, 1, {}, {}, {}, {}, {}};
  const std::size_t plane = static_cast<std::size_t>(p.hp()) * p.wp();
  p.padded.assign(p.channels * plane + kernel::kDepthwiseSlackWords, 0);
  const std::vector<std::int32_t> codes =
      random_codes(rng, bits, static_cast<std::size_t>(p.channels) * h * w);
  for (int c = 0; c < p.channels; ++c) {
    for (int y = 0; y < h; ++y) {
      std::copy_n(codes.begin() + (static_cast<std::ptrdiff_t>(c) * h + y) * w, w,
                  p.padded.begin() + static_cast<std::ptrdiff_t>(
                                         c * plane + (y + 1) * p.wp() + 1));
    }
  }
  p.taps = random_weights(rng, static_cast<std::size_t>(p.channels) * kernel * kernel);
  p.bias = random_codes(rng, 20, static_cast<std::size_t>(p.channels));
  p.rq = Dyadic::from_real(200.0 / (std::ldexp(1.0, bits - 1) * 64.0 * kernel));
  p.out = bus_bounds(8, true);
  return p;
}

TEST(SimdGemmDifferential, DispatchedDepthwiseMatchesOracle) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0xD3E);
  for (const KernelBackend* backend : backends) {
    ASSERT_NE(backend->ops.depthwise, nullptr) << backend->name;
    for (const int stride : {1, 2, 3}) {  // 3 takes the oracle fallback
      for (const int kernel : {1, 3, 5}) {
        for (const int w : {1, 2, 7, 8, 9, 16, 17, 31}) {
          for (const int bits : {8, 16}) {
            const int h = 2 + w % 5;
            if (w + 2 < kernel || h + 2 < kernel) continue;
            const DepthwiseProblem p =
                make_depthwise(rng, h, w, kernel, stride, bits);
            EXPECT_EQ(p.run(kernel::depthwise_reference),
                      p.run(backend->ops.depthwise))
                << backend->name << " stride=" << stride << " k=" << kernel
                << " w=" << w << " bits=" << bits;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ threading ---

TEST(SimdKernelConcurrency, ConcurrentSpansMatchScalarUnderDispatch) {
  // Read-only dispatch under a thread-pool fan-out: many lanes stream
  // disjoint spans through one unit while the active backend is the
  // dispatched one. TSan sees the atomic backend load racing nothing; the
  // results must equal the scalar oracle's.
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  const IntPwlUnit unit = make_unit(8, -4);
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kCols = 97;  // odd: every lane ends in a vector tail
  Rng rng(0xC0C0);
  std::vector<std::int64_t> codes(kRows * kCols);
  for (auto& c : codes) c = rng.uniform_int(-128, 127);
  std::vector<std::int64_t> expected(codes.size());
  {
    BackendScope scope("scalar");
    unit.eval_codes(codes, expected);
  }
  ThreadPool pool(4);
  for (const KernelBackend* backend : backends) {
    BackendScope scope(backend->name);
    std::vector<std::int64_t> actual(codes.size());
    pool.parallel_for(kRows, [&](std::size_t row) {
      const std::span<const std::int64_t> in(codes.data() + row * kCols,
                                             kCols);
      const std::span<std::int64_t> out(actual.data() + row * kCols, kCols);
      unit.eval_codes(in, out);
    });
    EXPECT_EQ(expected, actual) << backend->name;
  }
}

}  // namespace
}  // namespace gqa
