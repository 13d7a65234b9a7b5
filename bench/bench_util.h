// Shared helpers for the reproduction benches: seed-averaged fitting,
// environment knobs, and result dumping. Each bench binary regenerates one
// table or figure of the paper (see DESIGN.md §4 for the index).
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/approximator.h"
#include "eval/protocol.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace gqa::bench {

/// Number of independent fit seeds to average (GA/NN-LUT runs are
/// stochastic; the paper reports single runs, we stabilize with the mean).
inline int fit_seeds() {
  return static_cast<int>(env_int("GQA_FIT_SEEDS", 3));
}

/// Fits `seeds` approximators with distinct seeds.
inline std::vector<Approximator> fit_many(Op op, Method method, int entries,
                                          int seeds) {
  std::vector<Approximator> out;
  out.reserve(static_cast<std::size_t>(seeds));
  for (int s = 0; s < seeds; ++s) {
    FitOptions options;
    options.entries = entries;
    options.seed = 0xB0B0 + static_cast<std::uint64_t>(s) * 7919 +
                   static_cast<std::uint64_t>(op) * 131 +
                   static_cast<std::uint64_t>(method) * 17;
    out.push_back(Approximator::fit(op, method, options));
  }
  return out;
}

/// Seed-averaged operator-level MSE (§4.1 protocol).
inline double avg_operator_mse(Op op, Method method, int entries,
                               const SweepOptions& opts = {}) {
  const std::vector<Approximator> fits =
      fit_many(op, method, entries, fit_seeds());
  double sum = 0.0;
  for (const Approximator& a : fits) sum += operator_level_mse(a, opts);
  return sum / static_cast<double>(fits.size());
}

/// Seed-averaged per-scale MSE series, ordered S = 2^0 .. 2^exp_lo.
inline std::vector<double> avg_scale_series(Op op, Method method, int entries,
                                            const SweepOptions& opts = {}) {
  const std::vector<Approximator> fits =
      fit_many(op, method, entries, fit_seeds());
  std::vector<double> sums;
  for (const Approximator& a : fits) {
    const ScaleSweepResult sweep = sweep_scale_mse(a, opts);
    if (sums.empty()) sums.assign(sweep.points.size(), 0.0);
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
      sums[i] += sweep.points[i].mse / static_cast<double>(fits.size());
    }
  }
  return sums;
}

/// Writes a table both to stdout and, as markdown, into bench_results/.
inline void emit(const TablePrinter& table, const std::string& name) {
  table.print(std::cout);
  try {
    (void)std::system("mkdir -p bench_results");
    write_file("bench_results/" + name + ".md", table.to_markdown());
  } catch (const std::exception&) {
    // Result files are a convenience; never fail the bench over them.
  }
}

}  // namespace gqa::bench
