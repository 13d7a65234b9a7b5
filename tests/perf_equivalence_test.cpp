// Equivalence guarantees of the performance engine: multi-threaded and
// memoized GA runs must be bit-identical to the serial path, the prefix-sum
// objective must agree with the naive per-code scan, the batched kernel
// APIs must reproduce per-element evaluation exactly, the NonlinearProvider
// must survive concurrent hammering on cold caches, and every threaded tfm
// forward pass must be bit-identical to its serial twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/protocol.h"
#include "gqa/gqa_lut.h"
#include "gqa/objective.h"
#include "kernel/dispatch.h"
#include "kernel/int_pwl_unit.h"
#include "kernel/multirange_unit.h"
#include "pwl/fit_grid.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"
#include "tfm/modules.h"
#include "tfm/nonlinear_provider.h"
#include "util/contracts.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gqa {
namespace {

// ----------------------------------------------------------- thread pool --

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleLaneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int sum = 0;
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(round + 1, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), round + 1);
  }
}

TEST(ThreadPool, PooledForChunksPartitionsExactly) {
  // Chunk bounds must tile [0, count) exactly — no empty or out-of-range
  // chunk for awkward counts (regression: ceil-division used to emit a
  // trailing chunk with lo > count, underflowing span lengths downstream).
  ThreadPool pool2(2), pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
    for (std::size_t count : {0UL, 1UL, 2UL, 7UL, 33UL, 145UL, 1000UL}) {
      std::vector<std::atomic<int>> hits(count);
      for (auto& h : hits) h = 0;
      std::atomic<int> bad_bounds{0};
      pooled_for_chunks(pool, count, [&](std::size_t lo, std::size_t hi) {
        if (lo >= hi || hi > count) {
          ++bad_bounds;
          return;
        }
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      });
      EXPECT_EQ(bad_bounds.load(), 0) << "count=" << count;
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "count=" << count << " i=" << i;
      }
    }
  }
}

// ------------------------------------------------ GA threading + memoize --

GqaConfig quick_fit_config(int num_threads, bool memoize) {
  GqaConfig cfg = GqaConfig::preset(Op::kGelu, 8,
                                    MutationKind::kRoundingMutation);
  cfg.ga.population_size = 20;
  cfg.ga.generations = 25;
  cfg.ga.seed = 0xABCD;
  cfg.ga.num_threads = num_threads;
  cfg.ga.memoize_fitness = memoize;
  cfg.fitness = GqaConfig::Fitness::kDeployedMean;  // exercises the objective
  return cfg;
}

void expect_identical_fits(const GqaFitResult& a, const GqaFitResult& b) {
  EXPECT_EQ(a.ga.best, b.ga.best);
  EXPECT_EQ(a.ga.best_fitness, b.ga.best_fitness);
  EXPECT_EQ(a.ga.history, b.ga.history);
  EXPECT_EQ(a.ga.evaluations, b.ga.evaluations);
  EXPECT_EQ(a.fxp_table.breakpoints, b.fxp_table.breakpoints);
  EXPECT_EQ(a.fxp_table.slopes, b.fxp_table.slopes);
  EXPECT_EQ(a.fxp_table.intercepts, b.fxp_table.intercepts);
  ASSERT_EQ(a.per_scale.size(), b.per_scale.size());
  for (std::size_t i = 0; i < a.per_scale.size(); ++i) {
    EXPECT_EQ(a.per_scale[i].breakpoints, b.per_scale[i].breakpoints);
    EXPECT_EQ(a.per_scale[i].deployed_mse, b.per_scale[i].deployed_mse);
  }
}

TEST(GaParallel, FourThreadsBitIdenticalToSerial) {
  const GqaFitResult serial = fit_gqa_lut(quick_fit_config(1, false));
  const GqaFitResult threaded = fit_gqa_lut(quick_fit_config(4, false));
  expect_identical_fits(serial, threaded);
}

TEST(GaParallel, MemoizationBitIdenticalAndHitsCache) {
  const GqaFitResult plain = fit_gqa_lut(quick_fit_config(1, false));
  const GqaFitResult memoized = fit_gqa_lut(quick_fit_config(1, true));
  expect_identical_fits(plain, memoized);
  // Elite re-injection alone guarantees recurring genomes.
  EXPECT_GT(memoized.ga.cache_hits, 0);
  EXPECT_EQ(plain.ga.cache_hits, 0);
  EXPECT_EQ(memoized.ga.evaluations, plain.ga.evaluations);
}

TEST(GaParallel, ThreadsPlusMemoizationBitIdentical) {
  const GqaFitResult serial = fit_gqa_lut(quick_fit_config(1, false));
  const GqaFitResult fast = fit_gqa_lut(quick_fit_config(4, true));
  expect_identical_fits(serial, fast);
}

TEST(GaConfigValidation, RejectsZeroThreads) {
  GaConfig cfg;
  cfg.num_threads = 0;
  EXPECT_THROW(GeneticOptimizer{cfg}, ContractViolation);
}

// -------------------------------------------- prefix-sum objective check --

TEST(ObjectivePrefixSum, MatchesNaiveScanAcrossRandomGenomes) {
  const OpInfo& info = op_info(Op::kGelu);
  const FitGrid grid = FitGrid::make(info.f, info.range_lo, info.range_hi);
  const QuantAwareObjective objective(grid, 5, {0, 1, 2, 3, 4, 5, 6});

  Rng rng(0xFEED);
  for (int trial = 0; trial < 64; ++trial) {
    Genome g(7);
    for (double& p : g) p = rng.uniform(info.range_lo, info.range_hi);
    repair_breakpoints(g, info.range_lo, info.range_hi, 0.01);

    const std::vector<double> fast = objective.per_scale_mse(g);
    const std::vector<double> naive = objective.per_scale_mse_naive(g);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      // The closed-form SSE is algebraically exact; only double rounding
      // differs from the sequential scan.
      EXPECT_NEAR(fast[i], naive[i], 1e-9 * std::max(1.0, naive[i]))
          << "trial=" << trial << " scale index " << i;
    }
  }
}

TEST(ObjectivePrefixSum, HandlesCollapsedAndBoundaryBreakpoints) {
  const OpInfo& info = op_info(Op::kExp);
  const FitGrid grid = FitGrid::make(info.f, info.range_lo, info.range_hi);
  const QuantAwareObjective objective(grid, 5, {0, 2, 4, 6});

  // Breakpoints that quantize onto the same code at coarse scales, plus
  // breakpoints pinned to the range edges.
  const std::vector<Genome> genomes = {
      {-7.99, -7.9, -7.8, -0.2, -0.1, -0.05, -0.01},
      {-6.0, -5.0, -4.0, -3.0, -2.0, -1.0, -0.5},
      {-7.5, -7.49, -7.48, -7.47, -7.46, -7.45, -7.44},
  };
  for (const Genome& g : genomes) {
    const std::vector<double> fast = objective.per_scale_mse(g);
    const std::vector<double> naive = objective.per_scale_mse_naive(g);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i], naive[i], 1e-9 * std::max(1.0, naive[i]));
    }
  }
}

TEST(ObjectivePrefixSum, OperatorAveragesPerScale) {
  const OpInfo& info = op_info(Op::kGelu);
  const FitGrid grid = FitGrid::make(info.f, info.range_lo, info.range_hi);
  const QuantAwareObjective objective(grid, 5, {0, 3, 6});
  const Genome g = {-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0};
  const std::vector<double> per = objective.per_scale_mse(g);
  double mean = 0.0;
  for (double m : per) mean += m;
  mean /= static_cast<double>(per.size());
  EXPECT_DOUBLE_EQ(objective(g), mean);
}

// ------------------------------------------------- batched kernel checks --

PwlTable gelu_like_table() {
  PwlTable t;
  t.breakpoints = {-2.75, -1.5, -0.75, -0.25, 0.25, 1.0, 2.0};
  t.slopes = {0.0, -0.0625, 0.03125, 0.34375, 0.65625, 0.96875, 1.03125, 1.0};
  t.intercepts = {0.0, -0.15625, 0.0, 0.21875, 0.0, -0.09375, -0.15625, 0.0};
  return t;
}

TEST(BatchedKernel, EvalCodesBitIdenticalOverFullInputRange) {
  for (int scale_exp : {0, -2, -4, -6}) {
    const QuantParams input{std::ldexp(1.0, scale_exp), 8, true};
    const QuantizedPwlTable qt =
        quantize_table(gelu_like_table(), input, 5, 8);
    const IntPwlUnit unit(qt);

    std::vector<std::int64_t> codes;
    for (std::int64_t q = -128; q <= 127; ++q) codes.push_back(q);
    std::vector<std::int64_t> batch(codes.size());
    std::vector<double> batch_real(codes.size());
    unit.eval_codes(codes, batch);
    unit.eval_reals_from_codes(codes, batch_real);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(batch[i], unit.eval_code(codes[i]))
          << "q=" << codes[i] << " S=2^" << scale_exp;
      EXPECT_EQ(batch_real[i], unit.eval_real_from_code(codes[i]));
    }
  }
}

TEST(BatchedKernel, SixteenBitBusUsesDenseTableBitIdentically) {
  const QuantParams input{std::ldexp(1.0, -8), 16, true};
  IntPwlUnitConfig cfg;
  cfg.acc_bits = 32;
  const QuantizedPwlTable qt = quantize_table(gelu_like_table(), input, 5, 8);
  const IntPwlUnit unit(qt, cfg);
  std::vector<std::int64_t> codes;
  for (std::int64_t q = -32768; q <= 32767; q += 7) codes.push_back(q);
  std::vector<std::int64_t> batch(codes.size());
  unit.eval_codes(codes, batch);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(batch[i], unit.eval_code(codes[i])) << "q=" << codes[i];
  }
}

TEST(BatchedKernel, EvalCodesEnforcesBusWidthAndSizes) {
  const QuantParams input{0.25, 8, true};
  const IntPwlUnit unit(quantize_table(gelu_like_table(), input, 5, 8));
  std::vector<std::int64_t> codes = {0, 128};
  std::vector<std::int64_t> out(2);
  EXPECT_THROW(unit.eval_codes(codes, out), ContractViolation);
  std::vector<std::int64_t> short_out(1);
  codes = {0, 1};
  EXPECT_THROW(unit.eval_codes(codes, short_out), ContractViolation);
}

TEST(BatchedKernel, MultiRangeBatchBitIdentical) {
  for (Op op : {Op::kDiv, Op::kRsqrt}) {
    const Approximator approx = Approximator::fit(op, Method::kGqaNoRm, {});
    const MultiRangeUnit unit = approx.make_multirange_unit();
    std::vector<std::int64_t> codes;
    for (std::int64_t c = 1 << 12; c <= (1 << 24); c += 100003) {
      codes.push_back(c);
    }
    std::vector<double> batch(codes.size());
    unit.eval_fxp_batch(codes, 16, batch);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(batch[i], unit.eval_fxp(codes[i], 16))
          << op_info(op).name << " code=" << codes[i];
    }
  }
}

// ---------------------------------------------- provider batched parity --

TEST(ProviderBatch, ActivationBatchesBitIdenticalToScalar) {
  const auto provider = tfm::NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kGelu, Op::kExp});

  std::vector<std::int64_t> codes;
  for (std::int64_t q = -160; q <= 160; ++q) codes.push_back(q);  // saturates
  std::vector<double> batch(codes.size());
  for (int sx : {0, -3, -6}) {
    provider.gelu_codes(codes, sx, batch);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(batch[i], provider.gelu_code(codes[i], sx));
    }
    provider.exp_codes(codes, sx, batch);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(batch[i], provider.exp_code(codes[i], sx));
    }
    // HSWISH is not replaced -> exact backend path must agree too.
    provider.hswish_codes(codes, sx, batch);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(batch[i], provider.hswish_code(codes[i], sx));
    }
  }
}

TEST(ProviderBatch, WideRangeBatchesBitIdenticalToScalar) {
  const auto provider = tfm::NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kDiv, Op::kRsqrt});
  std::vector<std::int64_t> codes;
  for (std::int64_t c = 1; c <= (1 << 22); c = c * 3 + 1) codes.push_back(c);
  std::vector<double> batch(codes.size());
  provider.recip_fxp_batch(codes, 16, batch);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(batch[i], provider.recip_fxp(codes[i], 16));
  }
  provider.rsqrt_fxp_batch(codes, 16, batch);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(batch[i], provider.rsqrt_fxp(codes[i], 16));
  }

  std::vector<std::int64_t> bad = {0};
  std::vector<double> out(1);
  EXPECT_THROW(provider.recip_fxp_batch(bad, 16, out), ContractViolation);
  EXPECT_THROW(provider.rsqrt_fxp_batch(bad, 16, out), ContractViolation);
}

// ------------------------------------------- provider concurrency safety --

int test_threads() {
  return static_cast<int>(env_int("GQA_TEST_THREADS", 4));
}

/// Fitted once; copies start with cold unit caches (caches are per-copy
/// deployment artifacts, only the fitted tables are shared state).
const tfm::NonlinearProvider& gelu_rsqrt_master() {
  static const auto master = tfm::NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kGelu, Op::kRsqrt});
  return master;
}

// Regression test for the lazy unit-cache data race: before the caches were
// guarded, the first concurrent gelu_codes/rsqrt_fxp_batch calls on a fresh
// provider raced to insert into the mutable std::maps. Run under
// TSan/ASan CI to keep the fix enforced; mismatch counting doubles as a
// functional check (gtest assertions stay on the main thread).
TEST(ProviderConcurrency, ColdCacheHammerBitIdenticalToSerial) {
  const int lanes = std::max(2, test_threads());
  std::vector<std::int64_t> act_codes;
  for (std::int64_t q = -140; q <= 140; ++q) act_codes.push_back(q);
  std::vector<std::int64_t> wide_codes;
  for (std::int64_t c = 1; c <= (1 << 20); c = c * 5 + 3) wide_codes.push_back(c);
  const std::vector<int> exps = {0, -2, -4, -6};

  // Serial reference from an independent cold copy.
  const tfm::NonlinearProvider ref = gelu_rsqrt_master();
  std::map<int, std::vector<double>> ref_act;
  for (int e : exps) {
    ref_act[e].resize(act_codes.size());
    ref.gelu_codes(act_codes, e, ref_act[e]);
  }
  std::vector<double> ref_wide(wide_codes.size());
  ref.rsqrt_fxp_batch(wide_codes, 16, ref_wide);

  for (int round = 0; round < 3; ++round) {
    const tfm::NonlinearProvider provider = gelu_rsqrt_master();  // cold
    std::atomic<long> mismatches{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(lanes));
    for (int t = 0; t < lanes; ++t) {
      workers.emplace_back([&] {
        std::vector<double> act(act_codes.size());
        std::vector<double> wide(wide_codes.size());
        for (int rep = 0; rep < 4; ++rep) {
          for (int e : exps) {
            provider.gelu_codes(act_codes, e, act);
            for (std::size_t i = 0; i < act.size(); ++i) {
              if (act[i] != ref_act[e][i]) ++mismatches;
            }
          }
          provider.rsqrt_fxp_batch(wide_codes, 16, wide);
          for (std::size_t i = 0; i < wide.size(); ++i) {
            if (wide[i] != ref_wide[i]) ++mismatches;
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
  }
}

TEST(ProviderConcurrency, WarmUpRacesEvaluationSafely) {
  // warm_up publishes snapshots atomically, so it may run while other
  // threads evaluate — hammer exactly that interleaving.
  std::vector<std::int64_t> act_codes;
  for (std::int64_t q = -128; q <= 127; ++q) act_codes.push_back(q);
  const std::vector<int> exps = {0, -1, -2, -3, -4, -5, -6};
  const tfm::NonlinearProvider ref = gelu_rsqrt_master();
  std::map<int, std::vector<double>> ref_act;
  for (int e : exps) {
    ref_act[e].resize(act_codes.size());
    ref.gelu_codes(act_codes, e, ref_act[e]);
  }

  const tfm::NonlinearProvider provider = gelu_rsqrt_master();  // cold
  std::atomic<long> mismatches{0};
  std::atomic<bool> stop{false};
  std::thread warmer([&] {
    while (!stop.load()) {
      for (int e : exps) provider.warm_up({Op::kGelu, Op::kRsqrt}, {e});
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < std::max(2, test_threads() - 1); ++t) {
    readers.emplace_back([&] {
      std::vector<double> act(act_codes.size());
      for (int rep = 0; rep < 8; ++rep) {
        for (int e : exps) {
          provider.gelu_codes(act_codes, e, act);
          for (std::size_t i = 0; i < act.size(); ++i) {
            if (act[i] != ref_act[e][i]) ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  warmer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ProviderConcurrency, WarmedUpProviderServesLockFreeTier) {
  const tfm::NonlinearProvider provider = gelu_rsqrt_master();
  const std::vector<int> exps = {0, -3, -6};
  provider.warm_up({Op::kGelu, Op::kRsqrt}, exps);
  // warm_up on replaced ops must change nothing observable...
  std::vector<std::int64_t> codes = {-128, -5, 0, 7, 127};
  std::vector<double> warmed(codes.size()), cold(codes.size());
  const tfm::NonlinearProvider fresh = gelu_rsqrt_master();
  for (int e : exps) {
    provider.gelu_codes(codes, e, warmed);
    fresh.gelu_codes(codes, e, cold);
    EXPECT_EQ(warmed, cold) << "exp " << e;
  }
  // ...including ops it does not replace (warm_up skips them) and scales
  // outside the warmed set (served by the guarded overflow tier).
  provider.warm_up({Op::kExp, Op::kDiv}, exps);
  provider.gelu_codes(codes, -8, warmed);
  fresh.gelu_codes(codes, -8, cold);
  EXPECT_EQ(warmed, cold);
}

// --------------------------------------- threaded forward == serial ------

Rng eq_rng() { return Rng(0x7EAD); }

/// One full-replacement provider shared by the equivalence tests (fitting
/// all five ops once keeps the suite fast).
const tfm::NonlinearProvider& full_provider() {
  static const auto p = tfm::NonlinearProvider::with_method(
      Method::kGqaRm,
      {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt});
  return p;
}

template <typename Fn>
void expect_pool_invariant(const Fn& forward, const char* what) {
  const auto serial = forward(tfm::ExecContext{});
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    const auto threaded = forward(tfm::ExecContext{.pool = &pool});
    ASSERT_EQ(serial.shape(), threaded.shape()) << what;
    EXPECT_EQ(serial.data(), threaded.data())
        << what << " diverges at " << threads << " threads";
  }
}

TEST(ThreadedForward, LinearBitIdentical) {
  Rng rng = eq_rng();
  tfm::Linear lin(24, 16, rng);
  tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{13, 24}, rng, 1.0);
  (void)lin.forward_fp(x, {.calibrating = true});
  const QuantParams in_qp{x.amax() / 127.0, 8, true};
  (void)lin.freeze(in_qp, tfm::QuantPolicy{});
  const tfm::QTensor qx = tfm::QTensor::quantize(x, in_qp);
  expect_pool_invariant(
      [&](const auto& ctx) { return lin.forward_fp(x, ctx); }, "Linear fp");
  expect_pool_invariant(
      [&](const auto& ctx) { return lin.forward_int(qx, ctx); },
      "Linear int");
}

/// One conv shape of the two models, at a size that exercises the fast
/// path's edges. `per_oc` = in_ch·k·k is the GEMM depth, packed in pairs,
/// so odd cases end in a zero pad term; out_ch and oh·ow leave partial
/// 8-row and 8-column register tiles.
struct ConvCase {
  const char* name;
  int in_ch, out_ch, kernel, stride, pad, h, w;
  bool depthwise = false;
};

const std::vector<ConvCase>& conv_cases() {
  static const std::vector<ConvCase> cases = {
      // SegFormer stage-1 patch embed; (19+6-7)%4 != 0, per_oc 147 = 18·8+3.
      {"7x7/s4/p3 in_ch=3", 3, 8, 7, 4, 3, 19, 21},
      // Later patch embeds and the EfficientViT stem; per_oc 45 = 5·8+5.
      {"3x3/s2/p1", 5, 6, 3, 2, 1, 9, 10},
      {"3x3/s1/p1", 4, 6, 3, 1, 1, 9, 9},
      // per_oc 9: one vector step plus a 1-element tail.
      {"3x3/s1/p1 in_ch=1", 1, 3, 3, 1, 1, 7, 8},
      // AttentionSR reductions (k = s, p = 0); (9-2)%2, (14-4)%4, (19-8)%8
      // leave trailing input the window never reaches.
      {"2x2/s2/p0 (sr=2)", 5, 5, 2, 2, 0, 8, 9},
      {"4x4/s4/p0 (sr=4)", 3, 3, 4, 4, 0, 12, 14},
      {"8x8/s8/p0 (sr=8)", 2, 2, 8, 8, 0, 16, 19},
      // MixFfn / MbConv depthwise convs.
      {"depthwise 3x3/s1/p1", 6, 6, 3, 1, 1, 9, 9, true},
      {"depthwise 3x3/s2/p1", 6, 6, 3, 2, 1, 10, 9, true},
      // Pointwise convs pack channel-major planes.
      {"1x1/s1/p0", 5, 7, 1, 1, 0, 9, 9},
  };
  return cases;
}

/// A calibrated and frozen conv with its float and quantized input. With
/// `saturate`, the output range is calibrated on a 1/16-scaled copy of the
/// input and the input is quantized at a quarter of its range, so input
/// codes pin at -128/127 and the requantizer clips output codes.
struct FrozenConv {
  tfm::Conv2d conv;
  tfm::Tensor x;
  tfm::QTensor qx;
};

FrozenConv make_frozen_conv(const ConvCase& c, bool saturate) {
  Rng rng = eq_rng();
  FrozenConv f{tfm::Conv2d(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad, rng,
                           c.depthwise),
               tfm::Tensor::randn(tfm::Shape{c.in_ch, c.h, c.w}, rng, 1.0),
               {}};
  tfm::Tensor calib = f.x;
  if (saturate) {
    for (float& v : calib.data()) v /= 16.0F;
  }
  (void)f.conv.forward_fp(calib, {.calibrating = true});
  const QuantParams in_qp{f.x.amax() / (saturate ? 4.0 : 1.0) / 127.0, 8,
                          true};
  (void)f.conv.freeze(in_qp, tfm::QuantPolicy{});
  f.qx = tfm::QTensor::quantize(f.x, in_qp);
  return f;
}

std::size_t count_codes_at_bus_edges(const tfm::QTensor& q) {
  return static_cast<std::size_t>(std::count_if(
      q.data().begin(), q.data().end(), [&](std::int32_t v) {
        return v == q.params().qmin() || v == q.params().qmax();
      }));
}

TEST(ThreadedForward, Conv2dBitIdentical) {
  for (const ConvCase& c : conv_cases()) {
    SCOPED_TRACE(c.name);
    const FrozenConv f = make_frozen_conv(c, /*saturate=*/false);
    expect_pool_invariant(
        [&](const auto& ctx) { return f.conv.forward_fp(f.x, ctx); },
        "Conv2d fp");
    expect_pool_invariant(
        [&](const auto& ctx) { return f.conv.forward_int(f.qx, ctx); },
        "Conv2d int");
  }
}

TEST(ThreadedForward, LayerNormBitIdentical) {
  Rng rng = eq_rng();
  tfm::LayerNorm ln(32, rng);
  tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{11, 32}, rng, 1.5);
  (void)ln.forward_fp(x, {.calibrating = true});
  const QuantParams in_qp{x.amax() / 127.0, 8, true};
  (void)ln.freeze(in_qp, tfm::QuantPolicy{});
  const tfm::QTensor qx = tfm::QTensor::quantize(x, in_qp);
  expect_pool_invariant(
      [&](const auto& ctx) { return ln.forward_fp(x, ctx); },
      "LayerNorm fp");
  expect_pool_invariant(
      [&](const auto& ctx) {
        return ln.forward_int(qx, full_provider(), ctx);
      },
      "LayerNorm int");
}

TEST(ThreadedForward, SoftmaxBitIdentical) {
  Rng rng = eq_rng();
  tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{9, 12}, rng, 2.0);
  const QuantParams qp = make_po2_params(x.amax() / 127.0, 8);
  const tfm::QTensor qx = tfm::QTensor::quantize(x, qp);
  expect_pool_invariant(
      [&](const auto& ctx) { return tfm::Softmax::forward_fp(x, ctx); },
      "Softmax fp");
  expect_pool_invariant(
      [&](const auto& ctx) {
        return tfm::Softmax::forward_int(qx, full_provider(), ctx);
      },
      "Softmax int");
}

// ------------------------------------------------- kernel backend parity --

/// Runs `forward()` under the scalar oracle and then under every runnable
/// registered backend, asserting byte-identical results — the ThreadedForward
/// equivalence cases re-run across GQA_KERNEL_BACKEND values.
template <typename Fn>
void expect_backend_invariant(const Fn& forward, const char* what) {
  const auto reference = [&] {
    kernel::BackendScope scope("scalar");
    return forward();
  }();
  for (const kernel::KernelBackend* backend : kernel::registry()) {
    if (!kernel::backend_available(*backend)) continue;
    kernel::BackendScope scope(backend->name);
    const auto got = forward();
    ASSERT_EQ(reference.shape(), got.shape()) << what;
    EXPECT_EQ(reference.data(), got.data())
        << what << " diverges under kernel backend " << backend->name;
  }
}

TEST(KernelBackendParity, LinearForwardBitIdenticalUnderEveryBackend) {
  Rng rng = eq_rng();
  tfm::Linear lin(21, 16, rng);  // in=21: every GEMM row ends in a tail
  tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{13, 21}, rng, 1.0);
  (void)lin.forward_fp(x, {.calibrating = true});
  const QuantParams in_qp{x.amax() / 127.0, 8, true};
  (void)lin.freeze(in_qp, tfm::QuantPolicy{});
  const tfm::QTensor qx = tfm::QTensor::quantize(x, in_qp);
  expect_backend_invariant([&] { return lin.forward_int(qx); },
                           "Linear int");
}

TEST(KernelBackendParity, ConvForwardsBitIdenticalUnderEveryBackend) {
  // Pointwise and dense convs run the packed GEMM, depthwise convs the
  // depthwise op, against the scalar oracles under the `scalar` backend.
  // Each case runs serial and pooled, and through a reused workspace whose
  // parked scratch is dirty.
  ThreadPool pool(3);
  for (const ConvCase& c : conv_cases()) {
    for (const bool saturate : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (saturate ? " saturating" : ""));
      const FrozenConv f = make_frozen_conv(c, saturate);
      if (saturate) {
        ASSERT_GT(count_codes_at_bus_edges(f.qx), 0U);
        ASSERT_GT(count_codes_at_bus_edges(f.conv.forward_int(f.qx)), 0U);
      }
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        tfm::Workspace ws;
        expect_backend_invariant(
            [&] { return f.conv.forward_int(f.qx, {.pool = p}); },
            "Conv2d int");
        expect_backend_invariant(
            [&] { return f.conv.forward_int(f.qx, {p, &ws}); },
            "Conv2d int (workspace)");
      }
    }
  }
}

TEST(KernelBackendParity, GateFailingLayersTakeTheOracleUnderEveryBackend) {
  // 16-bit input codes against a 4096-deep reduction: max|code|·Σ|w| is
  // far past 2^31, so int32 accumulation is not provably exact, freeze()
  // records the failed gate, and every backend runs the int64 oracle.
  Rng rng = eq_rng();
  tfm::Linear lin(4096, 6, rng);
  tfm::Tensor xl = tfm::Tensor::randn(tfm::Shape{5, 4096}, rng, 1.0);
  (void)lin.forward_fp(xl, {.calibrating = true});
  const QuantParams lin_qp{xl.amax() / 32767.0, 16, true};
  (void)lin.freeze(lin_qp, tfm::QuantPolicy{});
  ASSERT_FALSE(lin.int32_accumulation_exact());
  const tfm::QTensor qxl = tfm::QTensor::quantize(xl, lin_qp);
  expect_backend_invariant([&] { return lin.forward_int(qxl); },
                           "gate-failing Linear int");

  tfm::Conv2d conv(64, 4, 8, 8, 0, rng);  // depth 64·8·8 = 4096
  tfm::Tensor xc = tfm::Tensor::randn(tfm::Shape{64, 16, 16}, rng, 1.0);
  (void)conv.forward_fp(xc, {.calibrating = true});
  const QuantParams conv_qp{xc.amax() / 32767.0, 16, true};
  (void)conv.freeze(conv_qp, tfm::QuantPolicy{});
  ASSERT_FALSE(conv.int32_accumulation_exact());
  const tfm::QTensor qxc = tfm::QTensor::quantize(xc, conv_qp);
  ThreadPool pool(3);
  expect_backend_invariant([&] { return conv.forward_int(qxc); },
                           "gate-failing Conv2d int");
  expect_backend_invariant([&] { return conv.forward_int(qxc, {.pool = &pool}); },
                           "gate-failing Conv2d int (pooled)");
}

TEST(KernelBackendParity, LayerNormAndSoftmaxBitIdenticalUnderEveryBackend) {
  Rng rng = eq_rng();
  tfm::LayerNorm ln(33, rng);  // dim=33: row sums end in a vector tail
  tfm::Tensor xl = tfm::Tensor::randn(tfm::Shape{11, 33}, rng, 1.5);
  (void)ln.forward_fp(xl, {.calibrating = true});
  const QuantParams ln_qp{xl.amax() / 127.0, 8, true};
  (void)ln.freeze(ln_qp, tfm::QuantPolicy{});
  const tfm::QTensor qxl = tfm::QTensor::quantize(xl, ln_qp);
  expect_backend_invariant(
      [&] { return ln.forward_int(qxl, full_provider()); },
      "LayerNorm int");

  tfm::Tensor xs = tfm::Tensor::randn(tfm::Shape{9, 13}, rng, 2.0);
  const QuantParams sm_qp = make_po2_params(xs.amax() / 127.0, 8);
  const tfm::QTensor qxs = tfm::QTensor::quantize(xs, sm_qp);
  expect_backend_invariant(
      [&] { return tfm::Softmax::forward_int(qxs, full_provider()); },
      "Softmax int");
}

TEST(ThreadedForward, ActivationBitIdentical) {
  Rng rng = eq_rng();
  tfm::Activation act(Op::kGelu);
  tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{10, 16}, rng, 1.5);
  (void)act.forward_fp(x, {.calibrating = true});
  const QuantParams in_qp = make_po2_params(x.amax() / 127.0, 8);
  (void)act.freeze(in_qp, tfm::QuantPolicy{});
  const tfm::QTensor qx = tfm::QTensor::quantize(x, in_qp);
  expect_pool_invariant(
      [&](const auto& ctx) { return act.forward_fp(x, ctx); },
      "Activation fp");
  expect_pool_invariant(
      [&](const auto& ctx) {
        return act.forward_int(qx, full_provider(), ctx);
      },
      "Activation int");
}

TEST(ThreadedForward, ResidualAddBitIdentical) {
  Rng rng = eq_rng();
  tfm::ResidualAdd add;
  tfm::Tensor a = tfm::Tensor::randn(tfm::Shape{7, 8}, rng, 1.0);
  tfm::Tensor b = tfm::Tensor::randn(tfm::Shape{7, 8}, rng, 1.0);
  (void)add.forward_fp(a, b, {.calibrating = true});
  const QuantParams a_qp{a.amax() / 127.0, 8, true};
  const QuantParams b_qp{b.amax() / 127.0, 8, true};
  (void)add.freeze(a_qp, b_qp, tfm::QuantPolicy{});
  const tfm::QTensor qa = tfm::QTensor::quantize(a, a_qp);
  const tfm::QTensor qb = tfm::QTensor::quantize(b, b_qp);
  expect_pool_invariant(
      [&](const auto& ctx) { return add.forward_fp(a, b, ctx); },
      "ResidualAdd fp");
  expect_pool_invariant(
      [&](const auto& ctx) { return add.forward_int(qa, qb, ctx); },
      "ResidualAdd int");
}

TEST(ThreadedForward, AttentionSRBitIdentical) {
  Rng rng = eq_rng();
  tfm::AttentionSR attn(16, 2, 2, rng);
  tfm::Tensor tokens = tfm::Tensor::randn(tfm::Shape{16, 16}, rng, 0.7);
  (void)attn.forward_fp(tokens, 4, 4, {.calibrating = true});
  const QuantParams in_qp{tokens.amax() / 127.0, 8, true};
  (void)attn.freeze(in_qp, tfm::QuantPolicy{});
  const tfm::QTensor qx = tfm::QTensor::quantize(tokens, in_qp);
  expect_pool_invariant(
      [&](const auto& ctx) { return attn.forward_fp(tokens, 4, 4, ctx); },
      "AttentionSR fp");
  expect_pool_invariant(
      [&](const auto& ctx) {
        return attn.forward_int(qx, 4, 4, full_provider(), ctx);
      },
      "AttentionSR int");
}

TEST(ThreadedForward, LinearAttentionBitIdentical) {
  Rng rng = eq_rng();
  tfm::LinearAttention attn(16, rng);
  tfm::Tensor tokens = tfm::Tensor::randn(tfm::Shape{24, 16}, rng, 0.7);
  (void)attn.forward_fp(tokens, {.calibrating = true});
  const QuantParams in_qp{tokens.amax() / 127.0, 8, true};
  (void)attn.freeze(in_qp, tfm::QuantPolicy{});
  const tfm::QTensor qx = tfm::QTensor::quantize(tokens, in_qp);
  expect_pool_invariant(
      [&](const auto& ctx) { return attn.forward_fp(tokens, ctx); },
      "LinearAttention fp");
  expect_pool_invariant(
      [&](const auto& ctx) {
        return attn.forward_int(qx, full_provider(), ctx);
      },
      "LinearAttention int");
}

TEST(ThreadedForward, MixFfnBitIdentical) {
  Rng rng = eq_rng();
  tfm::MixFfn ffn(8, 32, rng);
  tfm::Tensor tokens = tfm::Tensor::randn(tfm::Shape{16, 8}, rng, 0.7);
  (void)ffn.forward_fp(tokens, 4, 4, {.calibrating = true});
  const QuantParams in_qp{tokens.amax() / 127.0, 8, true};
  (void)ffn.freeze(in_qp, tfm::QuantPolicy{});
  const tfm::QTensor qx = tfm::QTensor::quantize(tokens, in_qp);
  expect_pool_invariant(
      [&](const auto& ctx) { return ffn.forward_fp(tokens, 4, 4, ctx); },
      "MixFfn fp");
  expect_pool_invariant(
      [&](const auto& ctx) {
        return ffn.forward_int(qx, 4, 4, full_provider(), ctx);
      },
      "MixFfn int");
}

TEST(ThreadedForward, MbConvBitIdentical) {
  Rng rng = eq_rng();
  tfm::MbConv block(8, 8, 2, 1, rng);
  tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{8, 6, 6}, rng, 0.7);
  (void)block.forward_fp(x, {.calibrating = true});
  const QuantParams in_qp = make_po2_params(x.amax() / 127.0, 8);
  (void)block.freeze(in_qp, tfm::QuantPolicy{});
  const tfm::QTensor qx = tfm::QTensor::quantize(x, in_qp);
  expect_pool_invariant(
      [&](const auto& ctx) { return block.forward_fp(x, ctx); },
      "MbConv fp");
  expect_pool_invariant(
      [&](const auto& ctx) {
        return block.forward_int(qx, full_provider(), ctx);
      },
      "MbConv int");
}

TEST(ThreadedForward, SegformerModelBitIdenticalAt124Threads) {
  tfm::SegformerConfig cfg;
  cfg.image_size = 32;
  cfg.num_classes = 5;
  cfg.dims = {8, 16, 16, 16};
  cfg.heads = {1, 2, 2, 2};
  cfg.sr_ratios = {4, 2, 1, 1};
  cfg.depths = {1, 1, 1, 1};
  cfg.decoder_dim = 16;
  tfm::SegformerB0Like model(cfg);
  Rng rng = eq_rng();
  const tfm::Tensor image = tfm::Tensor::randn(tfm::Shape{3, 32, 32}, rng, 0.8);
  model.calibrate(image);
  model.freeze();
  const tfm::NonlinearProvider& nl = full_provider();
  const tfm::QTensor serial_int = model.forward_int(image, nl);
  const tfm::Tensor serial_fp = model.forward_fp(image);
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const tfm::QTensor ti = model.forward_int(image, nl, &pool);
    EXPECT_EQ(serial_int.data(), ti.data()) << threads << " threads (int)";
    const tfm::Tensor tf = model.forward_fp(image, &pool);
    EXPECT_EQ(serial_fp.data(), tf.data()) << threads << " threads (fp)";
  }
}

TEST(ThreadedForward, EfficientViTModelBitIdenticalAt124Threads) {
  tfm::EfficientViTConfig cfg;
  cfg.image_size = 32;
  cfg.num_classes = 5;
  cfg.widths = {8, 12, 16, 24};
  cfg.expand = 2;
  cfg.head_dim = 24;
  tfm::EfficientViTB0Like model(cfg);
  Rng rng = eq_rng();
  const tfm::Tensor image = tfm::Tensor::randn(tfm::Shape{3, 32, 32}, rng, 0.8);
  model.calibrate(image);
  model.freeze();
  const tfm::NonlinearProvider& nl = full_provider();
  const tfm::QTensor serial_int = model.forward_int(image, nl);
  const tfm::Tensor serial_fp = model.forward_fp(image);
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const tfm::QTensor ti = model.forward_int(image, nl, &pool);
    EXPECT_EQ(serial_int.data(), ti.data()) << threads << " threads (int)";
    const tfm::Tensor tf = model.forward_fp(image, &pool);
    EXPECT_EQ(serial_fp.data(), tf.data()) << threads << " threads (fp)";
  }
}

TEST(ThreadedSweep, ScaleSweepBitIdenticalToSerial) {
  const Approximator approx = Approximator::fit(Op::kGelu, Method::kGqaRm, {});
  SweepOptions serial_opts;
  const ScaleSweepResult serial = sweep_scale_mse(approx, serial_opts);
  SweepOptions threaded_opts;
  threaded_opts.num_threads = 4;
  ThreadPool external(4);
  SweepOptions pooled_opts;
  pooled_opts.pool = &external;  // caller-owned pool, no per-sweep spawn
  for (const SweepOptions& opts : {threaded_opts, pooled_opts}) {
    const ScaleSweepResult threaded = sweep_scale_mse(approx, opts);
    ASSERT_EQ(serial.points.size(), threaded.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(serial.points[i].exponent, threaded.points[i].exponent);
      EXPECT_EQ(serial.points[i].mse, threaded.points[i].mse);
      EXPECT_EQ(serial.points[i].samples, threaded.points[i].samples);
    }
  }
}

}  // namespace
}  // namespace gqa
