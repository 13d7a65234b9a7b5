// Runtime-dispatched SIMD kernel backends (modeled on ggml-cpu's arch
// dispatch): every integer hot path keeps a scalar loop as the oracle (at
// its call site, or kernel/gemm.h for the GEMM and depthwise ops), and a
// backend may vectorize it behind a function table. A null entry in the
// table means "use the scalar oracle" — so the `scalar` backend is simply
// the all-null table.
//
// Selection happens once, at first use: the highest-priority backend whose
// capability probe (cpuid / HWCAP) passes wins, unless GQA_KERNEL_BACKEND
// pins a specific backend by name (`scalar`, `avx2`, or `auto`).
// Naming a backend the host cannot run fails loudly (ContractViolation) —
// a silent scalar fallback would make "I benchmarked AVX2" a lie.
//
// Bit-identity contract: a backend op must produce exactly the bytes the
// scalar oracle produces, for every input the call site is allowed to pass.
// Integer reductions reorder freely (integer addition is associative in the
// no-overflow domain the buses guarantee); floating-point reductions may
// NOT be vectorized (FP addition is not associative), which is why the
// Softmax exp-sum stays scalar. The differential
// suite (tests/simd_kernel_test.cpp) and the checksum-gated kernel_simd
// bench section enforce the contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "numerics/dyadic.h"
#include "numerics/saturate.h"

namespace gqa::kernel {

/// Flattened, trivially-copyable view of an IntPwlUnit's deployment
/// artifacts, rebuilt per call from the owning unit (never stored — the
/// unit's vectors may relocate when the unit is copied or moved).
///
/// Eligibility invariants the unit guarantees before handing out a view:
///  - `seg_of_code` is the dense code->segment table (input bus <= 16 bits)
///    padded with 3 trailing bytes so 4-byte vector gathers never read
///    out of bounds;
///  - slope codes fit int32 (param width <= 32), so a 32x32->64 multiply
///    is exact;
///  - |accumulator| < 2^50, so the int64->double conversion trick in the
///    AVX2 lanes is exact.
struct PwlTableView {
  const std::uint8_t* seg_of_code = nullptr;
  const std::int64_t* k_code = nullptr;
  const std::int64_t* b_aligned = nullptr;
  /// Per-code slope/intercept tables (k_of_code[q-code_lo] ==
  /// k_code[seg_of_code[q-code_lo]], same for b): present only for small
  /// buses, where they let a SIMD lane gather its parameters directly from
  /// the code index — two independent gathers instead of the dependent
  /// segment-then-parameter gather chain. Null on larger buses (the memory
  /// cost is 16 bytes per code); kernels must fall back to seg_of_code.
  const std::int64_t* k_of_code = nullptr;
  const std::int64_t* b_of_code = nullptr;
  std::int64_t code_lo = 0;
  BusBounds in;   ///< input-bus clamp/contract bounds
  BusBounds acc;  ///< accumulator saturation bounds
  double acc_scale = 0.0;
};

/// Register-tile geometry of the packed integer GEMM panels. The layout is
/// the same for every backend (kernel/gemm.h packs both operands).
inline constexpr int kGemmTileM = 8;  ///< output rows per weight tile
inline constexpr int kGemmTileN = 8;  ///< columns per activation tile

/// One integer GEMM  y[o,p] = rq(bias[o] + Σk W[o,k]·X[k,p])  over packed
/// operands: o < m output rows (Linear features, conv output channels),
/// p < n columns (tokens, pixels), k < depth reduction terms.
///  - `w_panel` (pack_gemm_weights): per tile of kGemmTileM rows, per
///    k-pair j, kGemmTileM int8 pairs (W[o,2j], W[o,2j+1]); padded rows and
///    the odd-depth pad term are zero.
///  - `x_panel` (pack_gemm_x): per tile of kGemmTileN columns, per k-pair
///    j, kGemmTileN int32 words, each holding (X[2j,p], X[2j+1,p]) as its
///    int16 low/high halves. Columns past n are don't-care: their results
///    are never stored.
///  - The epilogue is Requantizer::apply: clamp_to_bus(rq.apply(bias[o] +
///    acc), out), stored to y[o·y_stride_m + p·y_stride_n].
struct GemmView {
  const std::int8_t* w_panel = nullptr;
  const std::int32_t* x_panel = nullptr;
  const std::int32_t* bias = nullptr;
  int m = 0, n = 0, depth = 0;
  Dyadic rq;
  BusBounds out;
  std::int32_t* y = nullptr;
  std::ptrdiff_t y_stride_m = 0, y_stride_n = 0;
};

/// Words a depthwise input buffer must stay readable past its last plane:
/// vector kernels load whole 8-lane (stride 2: 16-word) windows at row
/// ends and discard the lanes past the output width.
inline constexpr std::size_t kDepthwiseSlackWords = 16;

/// One depthwise k×k conv  y[c,oy,ox] = rq(bias[c] + Σ W[c,ky,kx]·
/// X[c, oy·stride+ky, ox·stride+kx])  over zero-padded input planes
/// {C, hp, wp} (readable kDepthwiseSlackWords past the end) and taps
/// {C, k, k}; y is {C, oh, ow}. Same epilogue as GemmView.
struct DepthwiseView {
  const std::int32_t* x = nullptr;
  int hp = 0, wp = 0;
  const std::int8_t* w = nullptr;
  const std::int32_t* bias = nullptr;
  int kernel = 0, stride = 1, oh = 0, ow = 0;
  Dyadic rq;
  BusBounds out;
  std::int32_t* y = nullptr;
};

/// Function table of one backend. Null entry == "scalar oracle handles it".
struct KernelOps {
  /// IntPwlUnit::eval_codes body: contract-checks each code against the
  /// input bus (throwing the same ContractViolation as the oracle), then
  /// gathers segment/slope/intercept and saturating-adds into `out`.
  void (*pwl_eval_codes)(const PwlTableView&, const std::int64_t* q,
                         std::int64_t* out, std::size_t n) = nullptr;
  /// IntPwlUnit::eval_reals_from_codes body (same contract check; output is
  /// double(acc) * acc_scale, a single-rounded elementwise multiply).
  void (*pwl_eval_reals)(const PwlTableView&, const std::int64_t* q,
                         double* out, std::size_t n) = nullptr;
  /// IntPwlUnit::eval_reals_from_codes_saturated body (over-range codes
  /// clamp to the input bus instead of failing the precondition).
  void (*pwl_eval_reals_sat)(const PwlTableView&, const std::int64_t* q,
                             double* out, std::size_t n) = nullptr;
  /// Σ a[i]·w[i] with int64 accumulation. No forward calls it any more:
  /// only perfbench's `kernel.dot_i32_i8_ns_per_elem` probe and the
  /// bench_to_json `kernel_simd` row still read it.
  std::int64_t (*dot_i32_i8)(const std::int32_t* a, const std::int8_t* w,
                             std::size_t n) = nullptr;
  /// gemm_reference body over column tiles [tile_lo, tile_hi) with int32
  /// accumulation. The caller guarantees the exactness gate
  /// (int32_accumulation_exact in kernel/gemm.h); every Linear, pointwise
  /// and dense Conv2d runs through it.
  void (*gemm)(const GemmView& g, std::size_t tile_lo,
               std::size_t tile_hi) = nullptr;
  /// depthwise_reference body over channels [ch_lo, ch_hi) with int32
  /// accumulation, under the same caller-guaranteed gate.
  void (*depthwise)(const DepthwiseView& d, std::size_t ch_lo,
                    std::size_t ch_hi) = nullptr;
  /// Σ x[i] widened to int64 (LayerNorm row sum).
  std::int64_t (*sum_i32)(const std::int32_t* x, std::size_t n) = nullptr;
  /// Σ (dim·x[i] − sum)² — the D-scaled centered second moment of a
  /// LayerNorm row. Caller guarantees |dim·x − sum| fits int32.
  std::int64_t (*ssq_centered_i32)(const std::int32_t* x, std::int64_t dim,
                                   std::int64_t sum, std::size_t n) = nullptr;
  /// Row max (Softmax peak); n >= 1.
  std::int32_t (*max_i32)(const std::int32_t* x, std::size_t n) = nullptr;
  /// out[i] = int64(x[i]) − sub (Softmax max-subtracted differences).
  void (*sub_scalar_widen_i32)(const std::int32_t* x, std::int32_t sub,
                               std::int64_t* out, std::size_t n) = nullptr;
};

/// One registered backend: a stable name (lint rule R6 demands it appear in
/// the docs/ARCHITECTURE.md backend table), a runtime capability probe, and
/// the op table.
struct KernelBackend {
  const char* name;
  bool (*probe)();
  KernelOps ops;
};

#if defined(__x86_64__) || defined(_M_X64)
/// AVX2 backend descriptor, defined in dispatch_avx2.cpp (the only TU
/// compiled with -mavx2; the CPUID probe gates execution at runtime).
extern const KernelBackend kAvx2Backend;
#endif

/// All compiled-in backends, highest dispatch priority first; `scalar` is
/// always present and always last.
[[nodiscard]] const std::vector<const KernelBackend*>& registry();

/// The always-available all-null-ops oracle backend.
[[nodiscard]] const KernelBackend& scalar_backend();

/// True when the backend's capability probe passes on this host.
[[nodiscard]] bool backend_available(const KernelBackend& backend);

/// The backend hot paths dispatch through. Resolved on first call from
/// GQA_KERNEL_BACKEND (default `auto` = best available); later reads are a
/// single atomic load.
[[nodiscard]] const KernelBackend& active();

/// Resolves a backend by name. `auto` picks the highest-priority backend
/// whose probe passes; a concrete name must name a registered backend that
/// is available on this host, else ContractViolation.
[[nodiscard]] const KernelBackend& resolve_backend(const std::string& name);

/// RAII override of the active backend (tests and the kernel_simd bench
/// flip between `scalar` and the dispatched backend with this). The swap is
/// an atomic store — data-race free — but scopes are not meant to nest
/// concurrently: establish the scope before fanning work out.
class BackendScope {
 public:
  explicit BackendScope(const std::string& name);
  ~BackendScope();

  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  const KernelBackend* previous_;
};

}  // namespace gqa::kernel
