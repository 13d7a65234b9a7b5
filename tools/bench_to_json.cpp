// Emits the repo's perf-trajectory artifacts BENCH_fit.json,
// BENCH_kernel.json, BENCH_model.json, and BENCH_serve.json: deterministic
// wall-clock comparisons of the performance engine against the
// seed-equivalent paths.
//
//   fit    — GQA-LUT fitting with the deployed-mean objective: seed serial
//            per-code scan vs prefix-sum objective + memoized, 4-thread GA;
//            its `fit_cache` entry compares provider warm-up latency cold
//            (no store), cold-with-publish, and from a persistent-cache hit
//            (util/artifact_store.h), gated on the warmed units being
//            bit-identical to the storeless cold fit.
//   kernel — per-code provider/unit evaluation vs the batched span APIs;
//            its `kernel_simd` entry times the scalar oracle against the
//            dispatched SIMD backend per op (the `gemm` row on the models'
//            Linear/pointwise/dense-conv shapes), gated on bit-identical
//            outputs.
//   model  — table4/table5-style end-to-end forward passes (SegFormer and
//            EfficientViT, int + fp), serial vs threaded pool, gated on
//            the threaded integer logits matching the serial ones.
//   serve  — scene-batched InferenceEngine (images/s) vs the serial
//            per-image loop, with a bit-identity checksum gate; its
//            `coserve` entry measures the async two-model Server
//            (eval/server.h) against the serial loops, and its
//            `coserve_continuous` entry pits the continuous-batching
//            scheduler's streaming-callback client against a lockstep
//            batch-at-a-time client on the same server — same gates; its
//            `serve_stream` entry drives a streaming session
//            (Server::open_stream) with an open-loop fixed-rate frame
//            source at 0.5x/1x/2x the measured capacity, reporting
//            sustained fps, drop counts, and deadline-miss rate, gated on
//            served frames being bit-identical to serial forwards.
//
// Every artifact carries a `host` object (nproc, CPU model, kernel backend,
// compiler, git sha, reps): numbers compare only within one host. Every
// timed row also carries `<row>_spread` = {min, median, max} over its
// repeats (or rounds), in the row's own unit, so a gap can be told from
// noise without a rerun.
//
// Every expected section must be emitted: a skipped or failed section is
// reported and the tool exits non-zero, so a stale BENCH_*.json can never
// masquerade as a fresh one. Every bit-identity gate above also feeds the
// exit code, which makes a small-knob run the `bench_to_json_smoke` ctest.
//
// Usage: bench_to_json [output_dir]   (default: current directory; created
//                                      if missing)
// Knobs: GQA_BENCH_GENERATIONS (default 200) bounds the fit comparison;
//        GQA_BENCH_REPS (default 3) repetitions, best run kept (the
//        spread keeps all of them);
//        GQA_BENCH_THREADS (default 4) lanes for the threaded forwards;
//        GQA_SERVE_SCENES (default 12) images per serving dispatch.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/approximator.h"
#include "util/artifact_store.h"
#include "eval/engine.h"
#include "eval/scene.h"
#include "eval/server.h"
#include "gqa/gqa_lut.h"
#include "gqa/objective.h"
#include "kernel/dispatch.h"
#include "kernel/gemm.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"
#include "tfm/nonlinear_provider.h"
#include "util/env.h"
#include "util/fault_injection.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace gqa;

/// Wall time of one call of `fn` in milliseconds.
template <typename Fn>
double time_once_ms(const Fn& fn) {
  Timer timer;
  fn();
  return timer.milliseconds();
}

/// Wall times of `reps` calls of `fn` in milliseconds; a row reports the
/// best (min_of) and the spread of all of them.
template <typename Fn>
std::vector<double> time_reps_ms(int reps, const Fn& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) ms.push_back(time_once_ms(fn));
  return ms;
}

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// Middle element after sorting — the round statistic of the serving
/// sections (robust to one-off bursts on a shared box).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Writes `<key>_spread` = {min, median, max} of `samples` mapped through
/// `unit` (ms to the row's unit; a rate's min comes from the slowest run).
template <typename Unit>
void put_spread(Json& j, const std::string& key,
                const std::vector<double>& samples, const Unit& unit) {
  std::vector<double> v;
  for (double x : samples) v.push_back(unit(x));
  std::sort(v.begin(), v.end());
  Json spread = Json::object();
  spread["min"] = Json(v.front());
  spread["median"] = Json(v[v.size() / 2]);
  spread["max"] = Json(v.back());
  j[key + "_spread"] = std::move(spread);
}
void put_spread(Json& j, const std::string& key,
                const std::vector<double>& samples) {
  put_spread(j, key, samples, [](double x) { return x; });
}

/// INT8 deployment grids (the Table 1 activation sweep) or INT16 grids
/// (the W16A16 hardware row: finer activation scales, ~200x more codes —
/// the regime where the O(codes) -> O(segments) rewrite dominates).
std::vector<int> deployment_exps(int input_bits) {
  if (input_bits >= 16) return {8, 9, 10, 11, 12, 13, 14};
  return {0, 1, 2, 3, 4, 5, 6};
}

GqaConfig fit_config(bool fast, int generations, int input_bits) {
  GqaConfig config =
      GqaConfig::preset(Op::kGelu, 8, MutationKind::kRoundingMutation);
  config.ga.seed = 0xF00;
  config.ga.generations = generations;
  config.fitness = GqaConfig::Fitness::kDeployedMean;
  config.input_bits = input_bits;
  config.deployment_scale_exps = deployment_exps(input_bits);
  // Seed path: per-code objective scan, serial, no memoization — what the
  // repo did before the fitness engine. Fast: prefix sums + memo + threads.
  config.use_naive_objective = !fast;
  config.ga.memoize_fitness = fast;
  config.ga.num_threads = fast ? 4 : 1;
  return config;
}

Json width_report(int input_bits, int generations, int reps) {
  const FitGrid grid = FitGrid::make(op_info(Op::kGelu).f, -4.0, 4.0);
  const QuantAwareObjective objective(grid, 5, deployment_exps(input_bits),
                                      input_bits);
  std::vector<Genome> genomes;
  Rng rng(0x5EED);
  const int count = input_bits >= 16 ? 16 : 256;
  for (int i = 0; i < count; ++i) {
    Genome g(7);
    for (double& p : g) p = rng.uniform(-4.0, 4.0);
    repair_breakpoints(g, -4.0, 4.0, 0.01);
    genomes.push_back(std::move(g));
  }
  double sink = 0.0;
  const std::vector<double> naive = time_reps_ms(reps, [&] {
    for (const Genome& g : genomes) {
      for (double m : objective.per_scale_mse_naive(g)) sink += m;
    }
  });
  const std::vector<double> prefix = time_reps_ms(reps, [&] {
    for (const Genome& g : genomes) {
      for (double m : objective.per_scale_mse(g)) sink += m;
    }
  });

  // End-to-end fit: seed-equivalent serial scan vs the full engine.
  const std::vector<double> fit_seed = time_reps_ms(reps, [&] {
    sink += fit_gqa_lut(fit_config(false, generations, input_bits)).fxp_mse;
  });
  const std::vector<double> fit_fast = time_reps_ms(reps, [&] {
    sink += fit_gqa_lut(fit_config(true, generations, input_bits)).fxp_mse;
  });
  const double naive_ms = min_of(naive), prefix_ms = min_of(prefix);
  const double fit_seed_ms = min_of(fit_seed), fit_fast_ms = min_of(fit_fast);
  const auto us_per_genome = [&](double ms) {
    return ms * 1e3 / static_cast<double>(genomes.size());
  };

  Json j = Json::object();
  j["input_bits"] = Json(input_bits);
  j["generations"] = Json(generations);
  j["objective_naive_us_per_genome"] = Json(us_per_genome(naive_ms));
  put_spread(j, "objective_naive_us_per_genome", naive, us_per_genome);
  j["objective_prefix_us_per_genome"] = Json(us_per_genome(prefix_ms));
  put_spread(j, "objective_prefix_us_per_genome", prefix, us_per_genome);
  j["objective_speedup"] = Json(naive_ms / prefix_ms);
  j["fit_seed_serial_ms"] = Json(fit_seed_ms);
  put_spread(j, "fit_seed_serial_ms", fit_seed);
  j["fit_memo_threads4_ms"] = Json(fit_fast_ms);
  put_spread(j, "fit_memo_threads4_ms", fit_fast);
  j["fit_speedup"] = Json(fit_seed_ms / fit_fast_ms);
  j["checksum"] = Json(sink);  // keeps the work observable
  return j;
}

/// Persistent-cache deployment warm-up: the same warm_up_deployment() call
/// timed cold (caching disabled), cold-with-publish (empty store), and from
/// a cache hit (populated store). Checksum-gated like the serving sections:
/// the cache-served units must be bit-identical to the storeless cold fit,
/// so the latency win can never hide a wrong artifact.
Json fit_cache_section(int reps, bool& bit_identical) {
  namespace fs = std::filesystem;
  // Per-process, so concurrent runs never remove_all each other's store.
  const std::string dir = "/tmp/gqa_bench_fit_cache_" +
                          std::to_string(static_cast<long long>(::getpid()));
  const std::set<Op> ops = {Op::kGelu, Op::kHswish};
  const auto warm_once = [&] {
    const auto nl = tfm::NonlinearProvider::with_method(Method::kGqaRm, ops);
    nl.warm_up_deployment();
    return nl;
  };

  std::vector<double> cold, publish, hit;
  for (int r = 0; r < std::max(reps, 3); ++r) {
    {
      CacheScope no_cache{""};
      cold.push_back(time_once_ms(warm_once));
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
    CacheScope cache{dir};
    publish.push_back(time_once_ms(warm_once));
    hit.push_back(time_once_ms(warm_once));
  }

  // Bit-identity gate: a cache-hit provider against a storeless cold one.
  bool identical = true;
  {
    CacheScope cache{dir};
    const auto warmed = warm_once();
    CacheScope no_cache{""};
    const auto cold = warm_once();
    for (std::int64_t q = -128; q <= 127 && identical; ++q) {
      identical = warmed.gelu_code(q, -3) == cold.gelu_code(q, -3) &&
                  warmed.hswish_code(q, -2) == cold.hswish_code(q, -2);
    }
  }
  int artifacts = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++artifacts;
  }
  fs::remove_all(dir);

  Json j = Json::object();
  j["ops"] = Json("GELU,HSWISH");
  j["artifacts_published"] = Json(artifacts);
  j["cold_fit_ms"] = Json(min_of(cold));
  put_spread(j, "cold_fit_ms", cold);
  j["fit_and_publish_ms"] = Json(min_of(publish));
  put_spread(j, "fit_and_publish_ms", publish);
  j["cache_hit_ms"] = Json(min_of(hit));
  put_spread(j, "cache_hit_ms", hit);
  j["hit_speedup"] = Json(min_of(cold) / min_of(hit));
  j["bit_identical"] = Json(identical);
  bit_identical = bit_identical && identical;
  return j;
}

Json fit_report(int reps, bool& bit_identical) {
  const int generations =
      static_cast<int>(env_int("GQA_BENCH_GENERATIONS", 200));
  Json j = Json::object();
  j["bench"] = Json("fit");
  j["op"] = Json("GELU");
  j["int8"] = width_report(8, generations, reps);
  j["int16"] = width_report(16, std::max(10, generations / 8), reps);
  j["fit_cache"] = fit_cache_section(reps, bit_identical);
  return j;
}

/// The packed integer GEMM on the models' real layer shapes (m output
/// rows, n columns, depth), scalar oracle vs the dispatched op over the
/// same pre-packed panels, gated on identical output codes.
Json gemm_row(int reps, bool& bit_identical) {
  struct LayerShape {
    const char* layer;
    int m, n, depth;
  };
  const std::vector<LayerShape> shapes = {
      {"segformer stage-1 fc1 (Linear)", 128, 256, 32},
      {"segformer head fuse (Linear)", 256, 256, 1024},
      {"segformer stage-1 patch embed (dense 7x7)", 32, 256, 147},
      {"segformer stage-1 reduction (dense 8x8/s8)", 32, 4, 2048},
      {"efficientvit stage-1 expand (pointwise)", 48, 1024, 12},
      {"efficientvit stage-3 expand (pointwise)", 192, 64, 48},
  };
  const kernel::KernelOps& ops = kernel::active().ops;
  Rng rng(0x6E33);
  double scalar_ms = 0.0, simd_ms = 0.0, macs = 0.0;
  bool identical = true;
  Json layers = Json::array();
  for (const LayerShape& s : shapes) {
    std::vector<std::int8_t> w(static_cast<std::size_t>(s.m) * s.depth);
    for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    std::vector<std::int32_t> x(static_cast<std::size_t>(s.depth) * s.n);
    for (auto& v : x) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
    std::vector<std::int32_t> bias(static_cast<std::size_t>(s.m), 3);
    const std::vector<std::int8_t> wp = kernel::pack_gemm_weights(w, s.m, s.depth);
    std::vector<std::int32_t> xp(kernel::gemm_x_panel_words(s.depth, s.n), 0);
    const std::size_t tiles = kernel::gemm_tiles(s.n);
    kernel::pack_gemm_x(x.data(), 1, s.depth, s.depth, s.n, xp.data(), 0, tiles);
    std::vector<std::int32_t> ref(static_cast<std::size_t>(s.m) * s.n);
    std::vector<std::int32_t> got(ref.size());
    kernel::GemmView g{.w_panel = wp.data(),
                       .x_panel = xp.data(),
                       .bias = bias.data(),
                       .m = s.m,
                       .n = s.n,
                       .depth = s.depth,
                       .rq = Dyadic::from_real(1.0 / (64.0 * s.depth)),
                       .out = bus_bounds(8, true),
                       .y = ref.data(),
                       .y_stride_m = 1,
                       .y_stride_n = s.m};
    const std::vector<double> scalar_reps =
        time_reps_ms(reps, [&] { kernel::gemm_reference(g, 0, tiles); });
    g.y = got.data();
    std::vector<double> simd_reps = scalar_reps;
    if (ops.gemm != nullptr) {
      simd_reps = time_reps_ms(reps, [&] { ops.gemm(g, 0, tiles); });
      identical = identical && ref == got;
    }
    const double one_scalar = min_of(scalar_reps);
    const double one_simd = min_of(simd_reps);
    scalar_ms += one_scalar;
    simd_ms += one_simd;
    macs += static_cast<double>(s.m) * s.n * s.depth;
    Json l = Json::object();
    l["layer"] = Json(s.layer);
    l["m"] = Json(s.m);
    l["n"] = Json(s.n);
    l["depth"] = Json(s.depth);
    l["scalar_ms"] = Json(one_scalar);
    put_spread(l, "scalar_ms", scalar_reps);
    l["dispatched_ms"] = Json(one_simd);
    put_spread(l, "dispatched_ms", simd_reps);
    l["speedup"] = Json(one_scalar / one_simd);
    layers.push_back(std::move(l));
  }
  Json r = Json::object();
  r["scalar_ns_per_mac"] = Json(scalar_ms * 1e6 / macs);
  r["dispatched_ns_per_mac"] = Json(simd_ms * 1e6 / macs);
  r["speedup"] = Json(scalar_ms / simd_ms);
  r["bit_identical"] = Json(identical);
  r["shapes"] = std::move(layers);
  bit_identical = bit_identical && identical;
  return r;
}

/// SIMD dispatch microbenchmarks: the dense-table PWL eval (per bus width)
/// and the integer row kernels timed under the scalar oracle and under the
/// dispatched backend. Every row is checksum-gated — the dispatched outputs
/// must equal the scalar oracle's bit for bit, so a throughput win can
/// never hide a numerics change. On hosts where the dispatched backend IS
/// scalar, rows report speedup 1.0 and the gate passes trivially.
Json kernel_simd_section(int reps, bool& bit_identical) {
  constexpr std::size_t kBatch = 4096;
  constexpr int kLoops = 64;
  const double items = static_cast<double>(kBatch) * kLoops;
  const std::string dispatched = kernel::active().name;
  const kernel::KernelOps& ops = kernel::active().ops;

  Json j = Json::object();
  j["kernel_backend"] = Json(dispatched);

  const auto ns_per_item = [&](double ms) { return ms * 1e6 / items; };
  const auto op_json = [&](const std::vector<double>& scalar,
                           const std::vector<double>& simd, bool identical) {
    const double scalar_ms = min_of(scalar), simd_ms = min_of(simd);
    Json r = Json::object();
    r["scalar_ns_per_item"] = Json(ns_per_item(scalar_ms));
    put_spread(r, "scalar_ns_per_item", scalar, ns_per_item);
    r["dispatched_ns_per_item"] = Json(ns_per_item(simd_ms));
    put_spread(r, "dispatched_ns_per_item", simd, ns_per_item);
    r["speedup"] = Json(scalar_ms / simd_ms);
    r["bit_identical"] = Json(identical);
    bit_identical = bit_identical && identical;
    return r;
  };

  // Dense-table PWL eval, per bus width (the Table 1 INT8 row and the
  // W16A16 hardware row).
  const Approximator gelu = Approximator::fit(Op::kGelu, Method::kGqaRm, {});
  const auto pwl_row = [&](const IntPwlUnit& unit, std::int64_t code_lo,
                           std::int64_t code_hi) {
    std::vector<std::int64_t> codes(kBatch);
    std::int64_t q = code_lo;
    const std::int64_t step = 1 + (code_hi - code_lo) / 512;
    for (std::size_t i = 0; i < kBatch; ++i) {
      codes[i] = q;
      q = q >= code_hi ? code_lo : std::min(q + step, code_hi);
    }
    std::vector<double> out(kBatch), ref(kBatch);
    const auto run = [&] {
      for (int l = 0; l < kLoops; ++l) unit.eval_reals_from_codes(codes, out);
    };
    std::vector<double> scalar_ms, simd_ms;
    {
      kernel::BackendScope scope("scalar");
      scalar_ms = time_reps_ms(reps, run);
      ref = out;
    }
    {
      kernel::BackendScope scope(dispatched);
      simd_ms = time_reps_ms(reps, run);
    }
    bool identical = true;
    for (std::size_t i = 0; i < kBatch; ++i) {
      identical = identical && ref[i] == out[i];
    }
    return op_json(scalar_ms, simd_ms, identical);
  };
  j["pwl_eval_int8"] = pwl_row(gelu.make_unit(-4), -128, 127);
  j["pwl_eval_int16"] = pwl_row(gelu.make_unit(-10, 16), -32768, 32767);

  // Integer row kernels against inline scalar reference loops (the loops
  // the oracle call sites run when the op-table entry is null).
  Rng rng(0x51DB);
  std::vector<std::int32_t> acts(kBatch);
  std::vector<std::int8_t> weights(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    acts[i] = static_cast<std::int32_t>(rng.uniform_int(-32768, 32767));
    weights[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  {
    std::int64_t scalar_sum = 0, simd_sum = 0;
    const std::vector<double> scalar_ms = time_reps_ms(reps, [&] {
      scalar_sum = 0;
      for (int l = 0; l < kLoops; ++l) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          scalar_sum += static_cast<std::int64_t>(acts[i]) * weights[i];
        }
      }
    });
    std::vector<double> simd_ms = scalar_ms;
    bool identical = true;
    if (ops.dot_i32_i8 != nullptr) {
      simd_ms = time_reps_ms(reps, [&] {
        simd_sum = 0;
        for (int l = 0; l < kLoops; ++l) {
          simd_sum += ops.dot_i32_i8(acts.data(), weights.data(), kBatch);
        }
      });
      identical = scalar_sum == simd_sum;
    }
    j["dot_i32_i8"] = op_json(scalar_ms, simd_ms, identical);
  }
  {
    std::int64_t scalar_sum = 0, simd_sum = 0;
    const std::vector<double> scalar_ms = time_reps_ms(reps, [&] {
      scalar_sum = 0;
      for (int l = 0; l < kLoops; ++l) {
        for (std::size_t i = 0; i < kBatch; ++i) scalar_sum += acts[i];
      }
    });
    std::vector<double> simd_ms = scalar_ms;
    bool identical = true;
    if (ops.sum_i32 != nullptr) {
      simd_ms = time_reps_ms(reps, [&] {
        simd_sum = 0;
        for (int l = 0; l < kLoops; ++l) {
          simd_sum += ops.sum_i32(acts.data(), kBatch);
        }
      });
      identical = scalar_sum == simd_sum;
    }
    j["sum_i32"] = op_json(scalar_ms, simd_ms, identical);
  }
  {
    std::int32_t scalar_peak = 0, simd_peak = 0;
    const std::vector<double> scalar_ms = time_reps_ms(reps, [&] {
      for (int l = 0; l < kLoops; ++l) {
        std::int32_t peak = acts[0];
        for (std::size_t i = 1; i < kBatch; ++i) {
          peak = std::max(peak, acts[i]);
        }
        scalar_peak = peak;
      }
    });
    std::vector<double> simd_ms = scalar_ms;
    bool identical = true;
    if (ops.max_i32 != nullptr) {
      simd_ms = time_reps_ms(reps, [&] {
        for (int l = 0; l < kLoops; ++l) {
          simd_peak = ops.max_i32(acts.data(), kBatch);
        }
      });
      identical = scalar_peak == simd_peak;
    }
    j["max_i32"] = op_json(scalar_ms, simd_ms, identical);
  }
  j["gemm"] = gemm_row(reps, bit_identical);
  return j;
}

Json kernel_report(int reps, bool& bit_identical) {
  constexpr std::size_t kBatch = 4096;
  constexpr int kLoops = 64;

  std::vector<std::int64_t> codes(kBatch);
  std::int64_t q = -128;
  for (std::size_t i = 0; i < kBatch; ++i) {
    codes[i] = q;
    q = q >= 127 ? -128 : q + 1;
  }
  std::vector<double> out(kBatch);
  const double items =
      static_cast<double>(kBatch) * static_cast<double>(kLoops);

  const auto provider =
      tfm::NonlinearProvider::with_method(Method::kGqaRm, {Op::kGelu});
  const std::vector<double> provider_scalar = time_reps_ms(reps, [&] {
    for (int l = 0; l < kLoops; ++l) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        out[i] = provider.gelu_code(codes[i], -4);
      }
    }
  });
  const std::vector<double> provider_batch = time_reps_ms(reps, [&] {
    for (int l = 0; l < kLoops; ++l) provider.gelu_codes(codes, -4, out);
  });

  const Approximator gelu = Approximator::fit(Op::kGelu, Method::kGqaRm, {});
  const IntPwlUnit unit = gelu.make_unit(-4);
  const std::vector<double> unit_scalar = time_reps_ms(reps, [&] {
    for (int l = 0; l < kLoops; ++l) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        out[i] = unit.eval_real_from_code(codes[i]);
      }
    }
  });
  const std::vector<double> unit_batch = time_reps_ms(reps, [&] {
    for (int l = 0; l < kLoops; ++l) unit.eval_reals_from_codes(codes, out);
  });

  Json j = Json::object();
  j["bench"] = Json("kernel");
  j["op"] = Json("GELU");
  j["batch"] = Json(static_cast<int>(kBatch));
  const auto ns_per_item = [&](double ms) { return ms * 1e6 / items; };
  const auto put_row = [&](const char* key, const std::vector<double>& ms) {
    j[key] = Json(ns_per_item(min_of(ms)));
    put_spread(j, key, ms, ns_per_item);
  };
  put_row("provider_per_code_ns_per_item", provider_scalar);
  put_row("provider_batched_ns_per_item", provider_batch);
  j["provider_batch_speedup"] =
      Json(min_of(provider_scalar) / min_of(provider_batch));
  put_row("unit_per_code_ns_per_item", unit_scalar);
  put_row("unit_batched_ns_per_item", unit_batch);
  j["unit_batch_speedup"] = Json(min_of(unit_scalar) / min_of(unit_batch));
  j["kernel_simd"] = kernel_simd_section(reps, bit_identical);
  return j;
}

/// End-to-end forward timings of one frozen model: serial vs threaded,
/// integer and fp paths, with a code checksum proving the threaded pass is
/// bit-identical (not just statistically close) to serial.
template <typename ModelT>
Json model_section(const ModelT& model, const tfm::Tensor& image,
                   const tfm::NonlinearProvider& nl, int reps, int threads,
                   bool& bit_identical) {
  ThreadPool pool(threads);
  std::int64_t serial_sum = 0, threaded_sum = 0;
  const std::vector<double> int_serial = time_reps_ms(reps, [&] {
    const tfm::QTensor y = model.forward_int(image, nl);
    serial_sum = 0;
    for (std::int32_t v : y.data()) serial_sum += v;
  });
  const std::vector<double> int_threaded = time_reps_ms(reps, [&] {
    const tfm::QTensor y = model.forward_int(image, nl, &pool);
    threaded_sum = 0;
    for (std::int32_t v : y.data()) threaded_sum += v;
  });
  const std::vector<double> fp_serial =
      time_reps_ms(reps, [&] { (void)model.forward_fp(image); });
  const std::vector<double> fp_threaded =
      time_reps_ms(reps, [&] { (void)model.forward_fp(image, &pool); });

  Json j = Json::object();
  const auto put_row = [&](const char* key, const std::vector<double>& ms) {
    j[key] = Json(min_of(ms));
    put_spread(j, key, ms);
  };
  j["threads"] = Json(threads);
  put_row("int_serial_ms", int_serial);
  put_row("int_threaded_ms", int_threaded);
  j["int_speedup"] = Json(min_of(int_serial) / min_of(int_threaded));
  put_row("fp_serial_ms", fp_serial);
  put_row("fp_threaded_ms", fp_threaded);
  j["fp_speedup"] = Json(min_of(fp_serial) / min_of(fp_threaded));
  j["logit_code_checksum"] = Json(static_cast<double>(serial_sum));
  j["threaded_bit_identical"] = Json(serial_sum == threaded_sum);
  bit_identical = bit_identical && serial_sum == threaded_sum;
  return j;
}

Json model_report(int reps, bool& bit_identical) {
  const int threads = static_cast<int>(env_int("GQA_BENCH_THREADS", 4));
  Json j = Json::object();
  j["bench"] = Json("model");

  // SegFormer slice (table4 op inventory: EXP/GELU/DIV/RSQRT) at reduced
  // width so the bench stays CI-sized; the threading behaviour is the same
  // as the full table4 run (GQA_NUM_THREADS on table4_segformer).
  {
    tfm::SegformerConfig cfg;
    cfg.image_size = 48;
    cfg.num_classes = 8;
    cfg.dims = {16, 32, 64, 128};
    cfg.heads = {1, 2, 2, 4};
    cfg.sr_ratios = {4, 2, 1, 1};
    cfg.depths = {1, 1, 1, 1};
    cfg.decoder_dim = 64;
    tfm::SegformerB0Like model(cfg);
    Rng rng(0x5E6F);
    const tfm::Tensor image =
        tfm::Tensor::randn(tfm::Shape{3, 48, 48}, rng, 0.8);
    model.calibrate(image);
    model.freeze();
    const auto nl = tfm::NonlinearProvider::with_method(
        Method::kGqaRm, {Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt});
    nl.warm_up({Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt},
               tfm::NonlinearProvider::deployment_scale_exps());
    j["segformer"] =
        model_section(model, image, nl, reps, threads, bit_identical);
  }

  // EfficientViT slice (table5 inventory: HSWISH/DIV).
  {
    tfm::EfficientViTConfig cfg;
    cfg.image_size = 48;
    cfg.num_classes = 8;
    cfg.widths = {12, 24, 48, 96};
    cfg.expand = 4;
    cfg.head_dim = 96;
    tfm::EfficientViTB0Like model(cfg);
    Rng rng(0xEF17);
    const tfm::Tensor image =
        tfm::Tensor::randn(tfm::Shape{3, 48, 48}, rng, 0.8);
    model.calibrate(image);
    model.freeze();
    const auto nl = tfm::NonlinearProvider::with_method(
        Method::kGqaRm, {Op::kHswish, Op::kDiv});
    nl.warm_up({Op::kHswish, Op::kDiv},
               tfm::NonlinearProvider::deployment_scale_exps());
    j["efficientvit"] =
        model_section(model, image, nl, reps, threads, bit_identical);
  }
  return j;
}

/// The serving sections' shared bit-identity metric: one int64 sum over
/// every logit code of every image. The committed gate is this checksum
/// (plus per-request equality in coserve), so there is exactly one
/// definition for all serving comparisons.
std::int64_t checksum(const std::vector<tfm::QTensor>& logits) {
  std::int64_t sum = 0;
  for (const tfm::QTensor& t : logits) {
    for (std::int32_t v : t.data()) sum += v;
  }
  return sum;
}

/// The continuous-batching client the serving sections time: streams every
/// (model_id, image) request through a submit-time callback and drains
/// once — admission overlaps service with no per-ticket wait barrier.
/// Each callback writes its own pre-assigned slot (disjoint, never
/// reallocated; drain()'s completion handshake publishes the writes), so
/// the result path is lock-free on the client. Callbacks must not throw
/// (the server would swallow it); the first backend error is recorded and
/// rethrown after the drain instead.
std::vector<tfm::QTensor> serve_stream_continuous(
    Server& server,
    const std::vector<std::pair<int, const tfm::Tensor*>>& requests) {
  std::vector<tfm::QTensor> results(requests.size());
  std::mutex error_mutex;
  std::exception_ptr first_error;
  for (std::size_t slot = 0; slot < requests.size(); ++slot) {
    (void)server.submit(requests[slot].first, *requests[slot].second,
                        [&results, &error_mutex, &first_error, slot](
                            Server::Ticket, tfm::QTensor result,
                            std::exception_ptr error) {
                          if (error != nullptr) {
                            std::lock_guard<std::mutex> lock(error_mutex);
                            if (first_error == nullptr) first_error = error;
                            return;
                          }
                          results[slot] = std::move(result);
                        });
  }
  server.drain();  // every callback has run when drain returns
  {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }
  return results;
}

/// Outcome of one fault-tolerant streaming pass (serve_stream_faulty):
/// per-slot results for the requests that succeeded (nullopt = resolved
/// with an error), plus the admission-refusal and failure counts the
/// serve_degraded section reports.
struct FaultyStreamResult {
  std::vector<std::optional<tfm::QTensor>> results;
  std::size_t admission_rejected = 0;
  std::size_t failed = 0;  ///< admitted but resolved with an error
};

/// serve_stream_continuous for chaos runs: the same streaming-callback
/// client, but each request carries a retry/deadline policy, an injected
/// admission refusal is counted instead of rethrown, and per-request
/// failures are tallied rather than failing the whole stream — the caller
/// decides what degraded service is worth (and checksums the successes).
FaultyStreamResult serve_stream_faulty(
    Server& server,
    const std::vector<std::pair<int, const tfm::Tensor*>>& requests,
    const SubmitOptions& submit_options) {
  FaultyStreamResult out;
  out.results.resize(requests.size());
  std::atomic<std::size_t> failed{0};
  for (std::size_t slot = 0; slot < requests.size(); ++slot) {
    try {
      (void)server.submit(requests[slot].first, *requests[slot].second,
                          submit_options,
                          [&out, &failed, slot](Server::Ticket,
                                                tfm::QTensor result,
                                                std::exception_ptr error) {
                            if (error != nullptr) {
                              failed.fetch_add(1,
                                               std::memory_order_relaxed);
                              return;
                            }
                            out.results[slot] = std::move(result);
                          });
    } catch (const ServingError&) {
      ++out.admission_rejected;  // refused before a ticket existed
    }
  }
  server.drain();  // every callback has run when drain returns
  out.failed = failed.load();
  return out;
}

/// Outcome of one open-loop streaming pass (run_stream_open_loop): the
/// push ledger (ticket -> source image index, in push order), every frame
/// the stream actually served keyed by ticket (for the bit-identity gate
/// against serial forwards; frames resolved with a ServingError —
/// dropped/superseded/expired — are counted by Server::Stats), and the
/// wall time of the pass including the close() drain.
struct StreamOpenLoopResult {
  std::vector<std::pair<Server::Ticket, std::size_t>> pushed;
  std::map<Server::Ticket, tfm::QTensor> served;
  double wall_ms = 0.0;
};

/// The open-loop frame source of the serve_stream section: pushes
/// `frames` frames (cycling through `images`) into one streaming session
/// at a fixed offered cadence REGARDLESS of service progress — the
/// real-time video shape, where a slow server does not slow the camera —
/// and lets the stream's drop policy shed whatever the server cannot
/// absorb. close() drains per the stream's drain_policy, so when this
/// returns every pushed frame has resolved exactly once.
StreamOpenLoopResult run_stream_open_loop(
    Server& server, int model_id, const std::vector<tfm::Tensor>& images,
    std::size_t frames, std::chrono::microseconds interval,
    const StreamOptions& options) {
  StreamOpenLoopResult out;
  std::mutex mutex;
  Server::StreamSession stream = server.open_stream(
      model_id, options,
      [&out, &mutex](Server::Ticket ticket, tfm::QTensor result,
                     std::exception_ptr error) {
        if (error != nullptr) return;
        std::lock_guard<std::mutex> lock(mutex);
        out.served.emplace(ticket, std::move(result));
      });
  Timer timer;
  auto next_push = std::chrono::steady_clock::now();
  for (std::size_t f = 0; f < frames; ++f) {
    const std::size_t idx = f % images.size();
    if (const std::optional<Server::Ticket> ticket =
            stream.push_frame(images[idx])) {
      out.pushed.emplace_back(*ticket, idx);
    }
    next_push += interval;
    std::this_thread::sleep_until(next_push);
  }
  stream.close();
  out.wall_ms = timer.milliseconds();
  return out;
}

/// The mixed two-model request list of the co-serving sections: one
/// SegFormer and one EfficientViT request per image, interleaved.
std::vector<std::pair<int, const tfm::Tensor*>> mixed_request_list(
    int seg_id, int evit_id, const std::vector<tfm::Tensor>& images) {
  std::vector<std::pair<int, const tfm::Tensor*>> requests;
  requests.reserve(2 * images.size());
  for (const tfm::Tensor& img : images) {
    requests.emplace_back(seg_id, &img);
    requests.emplace_back(evit_id, &img);
  }
  return requests;
}

/// Scene-batched serving vs the seed-equivalent serial loop. Engine(1)
/// isolates workspace reuse (same dispatch order, no threads); the wide
/// row adds image-level parallelism across the process pool. A checksum
/// mismatch marks bit_identical=false, which the smoke gate rejects.
template <typename ModelT>
Json serve_section(const ModelT& model, const tfm::NonlinearProvider& nl,
                   const std::vector<tfm::Tensor>& images, int reps) {
  const double n = static_cast<double>(images.size());
  EngineOptions one;
  one.num_threads = 1;
  const InferenceEngine engine1(one);
  const InferenceEngine wide;  // persistent process pool

  // Interleave rounds (serial, engine(1), engine(N)) and compare MEDIANS:
  // on a shared box one variant can catch a single abnormally fast or slow
  // window, which best-of would hand to whichever variant got lucky, while
  // alternating rounds give every variant the same drift exposure and the
  // median ignores the bursts. Serving rounds are cheap, so a higher round
  // floor than the other reports keeps the committed ratios stable.
  std::vector<tfm::QTensor> serial, batched1, batchedw;
  std::vector<double> serial_rounds, engine1_rounds, wide_rounds;
  for (int rep = 0; rep < std::max(reps, 9); ++rep) {
    serial_rounds.push_back(time_once_ms([&] {
      serial.clear();
      for (const tfm::Tensor& img : images) {
        serial.push_back(model.forward_int(img, nl));
      }
    }));
    engine1_rounds.push_back(time_once_ms([&] {
      batched1 = engine1.forward_int(model, images, nl);
    }));
    wide_rounds.push_back(time_once_ms([&] {
      batchedw = wide.forward_int(model, images, nl);
    }));
  }
  // Speedups come from PAIRED rounds: each round's serial and engine runs
  // are adjacent in time, so their ratio cancels the slow clock drift that
  // independent medians still absorb on a shared box.
  std::vector<double> engine1_ratio, wide_ratio;
  for (std::size_t i = 0; i < serial_rounds.size(); ++i) {
    engine1_ratio.push_back(serial_rounds[i] / engine1_rounds[i]);
    wide_ratio.push_back(serial_rounds[i] / wide_rounds[i]);
  }
  const double serial_ms = median(serial_rounds);
  const double engine1_speedup = median(engine1_ratio);
  const double wide_speedup = median(wide_ratio);
  const bool identical = checksum(serial) == checksum(batched1) &&
                         checksum(serial) == checksum(batchedw);

  // Engine throughputs are reported relative to the paired-round serial
  // baseline (serial median x paired speedup), so every number reflects
  // the drift-cancelled comparison.
  const double serial_ips = n / (serial_ms * 1e-3);
  const auto images_per_s = [n](double ms) { return n / (ms * 1e-3); };
  Json j = Json::object();
  j["scenes"] = Json(static_cast<int>(images.size()));
  j["threads"] = Json(wide.threads());
  j["serial_images_per_s"] = Json(serial_ips);
  put_spread(j, "serial_images_per_s", serial_rounds, images_per_s);
  j["engine1_images_per_s"] = Json(serial_ips * engine1_speedup);
  put_spread(j, "engine1_images_per_s", engine1_rounds, images_per_s);
  j["engine_wide_images_per_s"] = Json(serial_ips * wide_speedup);
  put_spread(j, "engine_wide_images_per_s", wide_rounds, images_per_s);
  j["engine1_speedup"] = Json(engine1_speedup);
  put_spread(j, "engine1_speedup", engine1_ratio);
  j["engine_wide_speedup"] = Json(wide_speedup);
  put_spread(j, "engine_wide_speedup", wide_ratio);
  j["logit_code_checksum"] = Json(static_cast<double>(checksum(serial)));
  j["bit_identical"] = Json(identical);
  return j;
}

/// Async two-model co-serving (gqa::Server) vs the serial per-image loops,
/// in ONE interleaved round loop so every variant shares the same serial
/// baseline and every committed ratio — including continuous vs
/// batch-at-a-time — is drift-cancelled:
///   server1    ticket client (submit all, wait all) on a 1-lane server —
///              isolates the front-end overhead + workspace reuse;
///   wide       the same ticket client on the process pool; submit-all/
///              wait-all is the batch-at-a-time shape (the old dispatcher
///              collected and barriered exactly like this), so it doubles
///              as the `lockstep` baseline of the coserve_continuous entry;
///   continuous the continuous-batching client on the same wide server:
///              every request carries a result callback, drain() is the
///              only synchronization point, no per-ticket wait barrier.
/// Emits the `coserve` and `coserve_continuous` entries.
struct CoserveReports {
  Json coserve;
  Json coserve_continuous;
};
CoserveReports coserve_sections(const tfm::SegformerB0Like& seg,
                                const tfm::EfficientViTB0Like& evit,
                                const std::vector<tfm::Tensor>& images,
                                int reps) {
  const auto nl = tfm::NonlinearProvider::with_method(
      Method::kGqaRm,
      {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt});
  const auto serve_stream = [&](Server& server, int seg_id, int evit_id) {
    std::vector<Server::Ticket> tickets;
    for (const tfm::Tensor& img : images) {
      tickets.push_back(server.submit(seg_id, img));
      tickets.push_back(server.submit(evit_id, img));
    }
    std::vector<tfm::QTensor> results;
    for (const Server::Ticket t : tickets) results.push_back(server.wait(t));
    return results;
  };

  ServerOptions one;
  one.num_threads = 1;
  Server server1(nl, one);
  const int s1_seg = server1.register_model(seg, "segformer");
  const int s1_evit = server1.register_model(evit, "efficientvit");
  Server wide(nl, {});  // process pool
  const int sw_seg = wide.register_model(seg, "segformer");
  const int sw_evit = wide.register_model(evit, "efficientvit");

  // The continuous-batching client on the wide server
  // (serve_stream_continuous: streaming callbacks, lock-free
  // pre-assigned result slots, drain as the only sync point). A backend
  // error is rethrown after the drain, failing the section through
  // emit_artifact's catch and thereby the manifest gate.
  const std::size_t total = 2 * images.size();
  const auto continuous_stream = [&] {
    return serve_stream_continuous(
        wide, mixed_request_list(sw_seg, sw_evit, images));
  };

  // Interleaved rounds, median-of-paired-ratios — same protocol as the
  // engine serve sections (drift-cancelled on a shared box).
  std::vector<tfm::QTensor> serial, served1, servedw, streamed;
  std::vector<double> serial_rounds, server1_rounds, wide_rounds,
      continuous_rounds;
  for (int rep = 0; rep < std::max(reps, 9); ++rep) {
    serial_rounds.push_back(time_once_ms([&] {
      serial.clear();
      for (const tfm::Tensor& img : images) {
        serial.push_back(seg.forward_int(img, nl));
        serial.push_back(evit.forward_int(img, nl));
      }
    }));
    server1_rounds.push_back(time_once_ms([&] {
      served1 = serve_stream(server1, s1_seg, s1_evit);
    }));
    wide_rounds.push_back(time_once_ms([&] {
      servedw = serve_stream(wide, sw_seg, sw_evit);
    }));
    continuous_rounds.push_back(
        time_once_ms([&] { streamed = continuous_stream(); }));
  }
  std::vector<double> server1_ratio, wide_ratio, continuous_ratio;
  for (std::size_t i = 0; i < serial_rounds.size(); ++i) {
    server1_ratio.push_back(serial_rounds[i] / server1_rounds[i]);
    wide_ratio.push_back(serial_rounds[i] / wide_rounds[i]);
    continuous_ratio.push_back(serial_rounds[i] / continuous_rounds[i]);
  }
  bool identical = checksum(serial) == checksum(served1) &&
                   checksum(serial) == checksum(servedw) &&
                   checksum(serial) == checksum(streamed);
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].data() == served1[i].data() &&
                serial[i].data() == servedw[i].data() &&
                serial[i].data() == streamed[i].data();
  }

  const double n = static_cast<double>(serial.size());
  const double serial_rps = n / (median(serial_rounds) * 1e-3);
  const auto requests_per_s = [n](double ms) { return n / (ms * 1e-3); };
  CoserveReports reports;
  {
    Json j = Json::object();
    j["requests"] = Json(static_cast<int>(serial.size()));
    j["threads"] = Json(wide.lanes());
    j["serial_requests_per_s"] = Json(serial_rps);
    put_spread(j, "serial_requests_per_s", serial_rounds, requests_per_s);
    j["server1_requests_per_s"] = Json(serial_rps * median(server1_ratio));
    put_spread(j, "server1_requests_per_s", server1_rounds, requests_per_s);
    j["server_wide_requests_per_s"] = Json(serial_rps * median(wide_ratio));
    put_spread(j, "server_wide_requests_per_s", wide_rounds, requests_per_s);
    j["server1_speedup"] = Json(median(server1_ratio));
    put_spread(j, "server1_speedup", server1_ratio);
    j["server_wide_speedup"] = Json(median(wide_ratio));
    put_spread(j, "server_wide_speedup", wide_ratio);
    j["logit_code_checksum"] = Json(static_cast<double>(checksum(serial)));
    j["bit_identical"] = Json(identical);
    reports.coserve = std::move(j);
  }
  {
    // The lockstep (batch-at-a-time) baseline is the wide ticket client:
    // same server, same pool, full submit/wait barrier per round. Both
    // numbers are derived from the SAME serial rounds, so the committed
    // continuous-vs-coserve comparison cannot be skewed by clock drift
    // between sections.
    Json j = Json::object();
    j["requests"] = Json(static_cast<int>(total));
    j["threads"] = Json(wide.lanes());
    j["serial_requests_per_s"] = Json(serial_rps);
    j["lockstep_requests_per_s"] = Json(serial_rps * median(wide_ratio));
    put_spread(j, "lockstep_requests_per_s", wide_rounds, requests_per_s);
    j["continuous_requests_per_s"] =
        Json(serial_rps * median(continuous_ratio));
    put_spread(j, "continuous_requests_per_s", continuous_rounds,
               requests_per_s);
    j["continuous_vs_lockstep"] =
        Json(median(continuous_ratio) / median(wide_ratio));
    j["logit_code_checksum"] = Json(static_cast<double>(checksum(serial)));
    j["bit_identical"] = Json(identical);
    reports.coserve_continuous = std::move(j);
  }
  return reports;
}

/// Degraded-throughput entry: the continuous two-model stream with the
/// scheduler/backend chaos points armed and a per-request retry budget.
/// Rounds interleave clean and degraded passes on the same server
/// (drift-cancelled ratio, like every committed serving number), and the
/// section is checksum-gated: every request that reports success under
/// injected faults must be bit-identical to its serial reference — fault
/// tolerance must never trade correctness for availability.
Json serve_degraded_section(const tfm::SegformerB0Like& seg,
                            const tfm::EfficientViTB0Like& evit,
                            const std::vector<tfm::Tensor>& images, int reps,
                            bool& bit_identical) {
  const char* kChaosSpec = "scheduler:0.05:101,backend:0.1:102";
  const auto nl = tfm::NonlinearProvider::with_method(
      Method::kGqaRm,
      {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt});
  Server wide(nl, {});  // process pool
  const int seg_id = wide.register_model(seg, "segformer");
  const int evit_id = wide.register_model(evit, "efficientvit");
  const std::vector<std::pair<int, const tfm::Tensor*>> requests =
      mixed_request_list(seg_id, evit_id, images);

  // Serial references in request order, for the per-success bit-identity
  // gate below.
  std::vector<std::vector<std::int32_t>> refs;
  refs.reserve(requests.size());
  for (const tfm::Tensor& img : images) {
    refs.push_back(seg.forward_int(img, nl).data());
    refs.push_back(evit.forward_int(img, nl).data());
  }

  SubmitOptions retrying;
  retrying.max_attempts = 4;  // rides through the injected transients

  std::vector<double> clean_rounds, degraded_rounds;
  std::size_t failed = 0, admission_rejected = 0;
  bool successes_identical = true;
  for (int rep = 0; rep < std::max(reps, 5); ++rep) {
    {
      fault::FaultScope quiet{""};
      FaultyStreamResult clean;
      clean_rounds.push_back(time_once_ms(
          [&] { clean = serve_stream_faulty(wide, requests, retrying); }));
    }
    {
      fault::FaultScope chaos{kChaosSpec};
      FaultyStreamResult degraded;
      degraded_rounds.push_back(time_once_ms(
          [&] { degraded = serve_stream_faulty(wide, requests, retrying); }));
      failed += degraded.failed;
      admission_rejected += degraded.admission_rejected;
      for (std::size_t i = 0; i < degraded.results.size(); ++i) {
        if (degraded.results[i].has_value()) {
          successes_identical =
              successes_identical && degraded.results[i]->data() == refs[i];
        }
      }
    }
  }
  std::vector<double> ratio;
  for (std::size_t i = 0; i < clean_rounds.size(); ++i) {
    ratio.push_back(clean_rounds[i] / degraded_rounds[i]);
  }
  const Server::Stats stats = wide.stats();
  const double total = static_cast<double>(requests.size());
  const double clean_rps = total / (median(clean_rounds) * 1e-3);
  const auto requests_per_s = [total](double ms) {
    return total / (ms * 1e-3);
  };

  Json j = Json::object();
  j["requests"] = Json(static_cast<int>(requests.size()));
  j["threads"] = Json(wide.lanes());
  j["fault_spec"] = Json(std::string(kChaosSpec));
  j["max_attempts"] = Json(retrying.max_attempts);
  j["clean_requests_per_s"] = Json(clean_rps);
  put_spread(j, "clean_requests_per_s", clean_rounds, requests_per_s);
  j["degraded_requests_per_s"] = Json(clean_rps * median(ratio));
  put_spread(j, "degraded_requests_per_s", degraded_rounds, requests_per_s);
  j["degraded_vs_clean"] = Json(median(ratio));
  put_spread(j, "degraded_vs_clean", ratio);
  j["failed_requests"] = Json(static_cast<int>(failed));
  j["admission_rejected"] = Json(static_cast<int>(admission_rejected));
  j["retries"] = Json(static_cast<double>(stats.retries));
  j["faults_injected"] = Json(static_cast<double>(stats.faults_injected));
  j["bit_identical"] = Json(successes_identical);
  bit_identical = bit_identical && successes_identical;
  return j;
}

/// Open-loop streaming sessions (Server::open_stream): a fixed-rate frame
/// source pushed at 0.5x/1x/2x the measured single-stream capacity (the
/// median serial forward time — a stream delivers in frame order with one
/// frame in flight, so lanes do not multiply its capacity). The real-time
/// figure of merit is what a viewer actually gets: sustained fps, how
/// much the drop policy shed, and the deadline-miss rate. Gate: every
/// frame the stream served must be bit-identical to a serial forward of
/// the same image — load shedding must never corrupt what IS delivered.
Json serve_stream_section(const tfm::SegformerB0Like& seg,
                          const std::vector<tfm::Tensor>& images, int reps,
                          bool& bit_identical) {
  const auto nl = tfm::NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt});

  // Serial references double as the capacity measurement. Untimed warm
  // pass first: the provider fits its LUT units lazily on first use, and
  // timing the fits would inflate the capacity estimate.
  for (const tfm::Tensor& img : images) (void)seg.forward_int(img, nl);
  std::vector<std::vector<std::int32_t>> refs;
  std::vector<double> frame_times;
  for (const tfm::Tensor& img : images) {
    Timer timer;
    refs.push_back(seg.forward_int(img, nl).data());
    frame_times.push_back(timer.milliseconds());
  }
  const double frame_ms = median(frame_times);
  const double capacity_fps = 1e3 / frame_ms;

  Server server(nl, {});
  const int model = server.register_model(seg, "segformer");
  StreamOptions so;
  so.drop_policy = DropPolicy::kDropOldest;
  so.deadline =
      std::chrono::milliseconds(static_cast<std::int64_t>(2.0 * frame_ms) + 1);
  const std::size_t frames = std::min<std::size_t>(
      std::max<std::size_t>(2 * images.size(), 8), 32);
  const int rounds = std::max(reps, 3);

  Json j = Json::object();
  j["capacity_fps"] = Json(capacity_fps);
  j["serial_frame_ms"] = Json(frame_ms);
  put_spread(j, "serial_frame_ms", frame_times);
  j["drop_policy"] = Json("drop_oldest");
  j["frames_per_round"] = Json(static_cast<int>(frames));
  j["rounds"] = Json(rounds);
  bool identical = true;
  const std::pair<const char*, double> rates[] = {
      {"under_capacity", 0.5}, {"at_capacity", 1.0}, {"over_capacity", 2.0}};
  for (const auto& [key, rate] : rates) {
    const double offered_fps = rate * capacity_fps;
    const auto interval = std::chrono::microseconds(
        static_cast<std::int64_t>(1e6 / offered_fps));
    const Server::Stats before = server.stats();
    std::vector<double> fps;
    std::size_t pushed = 0, served = 0;
    for (int rep = 0; rep < rounds; ++rep) {
      const StreamOpenLoopResult run =
          run_stream_open_loop(server, model, images, frames,
                                      interval, so);
      fps.push_back(static_cast<double>(run.served.size()) /
                    (run.wall_ms * 1e-3));
      pushed += run.pushed.size();
      served += run.served.size();
      for (const auto& [ticket, idx] : run.pushed) {
        const auto it = run.served.find(ticket);
        if (it != run.served.end()) {
          identical = identical && it->second.data() == refs[idx];
        }
      }
    }
    const Server::Stats after = server.stats();
    const std::uint64_t dropped = after.frames_dropped - before.frames_dropped;
    const std::uint64_t coalesced =
        after.frames_coalesced - before.frames_coalesced;
    const std::uint64_t misses =
        after.deadline_misses - before.deadline_misses;
    Json r = Json::object();
    r["offered_fps"] = Json(offered_fps);
    r["sustained_fps"] = Json(median(fps));
    put_spread(r, "sustained_fps", fps);
    r["pushed"] = Json(static_cast<int>(pushed));
    r["served"] = Json(static_cast<int>(served));
    r["dropped"] = Json(static_cast<double>(dropped));
    r["coalesced"] = Json(static_cast<double>(coalesced));
    r["deadline_misses"] = Json(static_cast<double>(misses));
    r["deadline_miss_pct"] = Json(
        100.0 * static_cast<double>(misses) / static_cast<double>(pushed));
    j[key] = std::move(r);
  }
  j["bit_identical"] = Json(identical);
  bit_identical = bit_identical && identical;
  return j;
}

Json serve_report(int reps, bool& bit_identical) {
  // Full default (B0-like) model sizes at 64x64: the deployment shape, and
  // the regime where activation buffers are big enough for the workspace
  // reuse to beat the allocator instead of measuring scheduler noise.
  const int scenes = static_cast<int>(env_int("GQA_SERVE_SCENES", 12));
  SceneOptions scene;
  scene.size = 64;
  std::vector<tfm::Tensor> images;
  for (const LabeledScene& s : make_scene_set(scene, scenes, 0x5E21)) {
    images.push_back(s.image);
  }

  tfm::SegformerB0Like segformer;
  segformer.calibrate(images.front());
  segformer.freeze();
  tfm::EfficientViTB0Like efficientvit;
  efficientvit.calibrate(images.front());
  efficientvit.freeze();

  Json j = Json::object();
  j["bench"] = Json("serve");
  {
    const auto nl = tfm::NonlinearProvider::with_method(
        Method::kGqaRm, {Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt});
    j["segformer"] = serve_section(segformer, nl, images, reps);
    bit_identical = bit_identical && j["segformer"]["bit_identical"].as_bool();
  }
  {
    const auto nl = tfm::NonlinearProvider::with_method(
        Method::kGqaRm, {Op::kHswish, Op::kDiv});
    j["efficientvit"] = serve_section(efficientvit, nl, images, reps);
    bit_identical =
        bit_identical && j["efficientvit"]["bit_identical"].as_bool();
  }
  CoserveReports coserve =
      coserve_sections(segformer, efficientvit, images, reps);
  bit_identical = bit_identical && coserve.coserve["bit_identical"].as_bool();
  j["coserve"] = std::move(coserve.coserve);
  j["coserve_continuous"] = std::move(coserve.coserve_continuous);
  j["serve_degraded"] =
      serve_degraded_section(segformer, efficientvit, images, reps,
                             bit_identical);
  j["serve_stream"] = serve_stream_section(segformer, images, reps,
                                           bit_identical);
  return j;
}

/// First line of `git -C <source dir> <args>`, or "" when git or the
/// checkout is unavailable.
std::string git_output(const std::string& args) {
  const std::string cmd =
      "git -C '" + std::string(GQA_SOURCE_DIR) + "' " + args + " 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  char line[256] = {};
  const bool got = std::fgets(line, sizeof line, pipe) != nullptr;
  ::pclose(pipe);
  std::string out = got ? line : "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

/// The host every BENCH_*.json number came from: numbers are only
/// comparable within one host, backend, compiler and rep count.
Json host_json(int reps) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  Json j = Json::object();
  j["nproc"] = Json(static_cast<int>(std::thread::hardware_concurrency()));
  j["cpu"] = Json(cpu);
  j["kernel_backend"] = Json(kernel::active().name);
  j["compiler"] = Json(__VERSION__);
  j["git_sha"] = Json(git_output("rev-parse HEAD"));
  j["git_dirty"] = Json(!git_output("status --porcelain --untracked-files=no")
                             .empty());
  j["reps"] = Json(reps);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const int reps = static_cast<int>(env_int("GQA_BENCH_REPS", 3));
  std::filesystem::create_directories(out_dir);

  // The completeness manifest: every name here must be emitted below, or
  // the tool exits non-zero. A section that fails (or is silently skipped
  // by a future edit) can therefore never leave a stale BENCH_*.json
  // pretending to be fresh.
  const std::vector<std::string> expected = {
      "fit",     "fit_cache",
      "kernel",  "kernel_simd",
      "model",   "serve",
      "coserve", "coserve_continuous",
      "serve_degraded", "serve_stream"};
  std::vector<std::string> emitted;
  bool all_identical = true;

  // `nested` lists manifest entries the artifact carries as sub-sections;
  // each is recorded only when actually present in the emitted JSON, so
  // the completeness gate notices if one silently disappears.
  const auto emit_artifact = [&](const char* name, const char* file,
                                 const std::vector<std::string>& nested,
                                 const std::function<Json()>& build) {
    try {
      Json j = build();
      j["host"] = host_json(reps);
      write_file(out_dir + "/" + std::string(file), j.dump() + "\n");
      std::printf("%s\n", j.dump().c_str());
      emitted.push_back(name);
      for (const std::string& key : nested) {
        if (j.contains(key)) emitted.push_back(key);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_to_json: section '%s' failed: %s\n", name,
                   e.what());
    }
  };

  emit_artifact("fit", "BENCH_fit.json", {"fit_cache"},
                [&] { return fit_report(reps, all_identical); });
  emit_artifact("kernel", "BENCH_kernel.json", {"kernel_simd"},
                [&] { return kernel_report(reps, all_identical); });
  emit_artifact("model", "BENCH_model.json", {},
                [&] { return model_report(reps, all_identical); });
  emit_artifact("serve", "BENCH_serve.json",
                {"coserve", "coserve_continuous", "serve_degraded",
                 "serve_stream"},
                [&] { return serve_report(reps, all_identical); });

  const std::vector<std::string> missing = missing_entries(expected, emitted);
  if (!missing.empty()) {
    std::fprintf(stderr, "bench_to_json: missing bench sections: %s\n",
                 join(missing, ", ").c_str());
    return 1;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_to_json: a checksum-gated section diverged from its "
                 "serial reference (bit_identical=false)\n");
    return 1;
  }
  return 0;
}
