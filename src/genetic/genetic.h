// Generic real-coded genetic optimizer implementing the evolutionary loop of
// Algorithm 1: stochastic segment-swap crossover, pluggable mutation, 3-way
// tournament selection, and single-elite preservation so the best fitness is
// monotone non-increasing across generations.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace gqa {

/// Hyperparameters of the evolutionary loop. Defaults match Table 1's
/// common settings (Np = 50, T = 500, θc = 0.7, θm = 0.2).
struct GaConfig {
  int population_size = 50;     ///< Np
  int generations = 500;        ///< T
  double crossover_prob = 0.7;  ///< θc
  double mutation_prob = 0.2;   ///< θm
  int tournament_size = 3;
  int elite_count = 1;          ///< individuals copied verbatim each round
  std::uint64_t seed = 0xC0FFEE;
  /// Fitness-evaluation lanes. The variation/selection RNG stays serial, so
  /// results are bit-identical at any thread count (fitness must be pure).
  int num_threads = 1;
  /// Cache scores by genome bytes so elite re-injections and tournament
  /// duplicates are never re-scored. Requires a pure fitness function, so
  /// the generic default is off; GqaConfig (whose objectives are pure)
  /// turns it on.
  bool memoize_fitness = false;
};

using Genome = std::vector<double>;

/// Byte-exact memo/dedupe key for a genome, shared by the fitness cache
/// and GQA-LUT's champion-archive dedupe so the two can never diverge.
/// Distinct bit patterns hash apart; -0.0 vs 0.0 merely costs a redundant
/// evaluation, never a wrong score.
[[nodiscard]] std::string genome_key(const Genome& genome);
/// Writes genome_key(genome) into `key`, reusing its capacity: the hot
/// loops keep one key buffer per slot instead of allocating per genome.
void assign_genome_key(const Genome& genome, std::string& key);
/// Fitness: lower is better (the paper uses MSE).
using FitnessFn = std::function<double(const Genome&)>;
/// In-place mutation of one genome.
using MutateFn = std::function<void(Genome&, Rng&)>;
/// In-place constraint repair (sorting, clipping, separation).
using RepairFn = std::function<void(Genome&)>;
/// Creates one random genome.
using InitFn = std::function<Genome(Rng&)>;
/// Observation hook called once per generation after fitness evaluation,
/// before selection: (generation, population, scores). Used by GQA-LUT to
/// archive deployment-ready candidates across the whole evolution.
using PopulationHook =
    std::function<void(int, const std::vector<Genome>&, const std::vector<double>&)>;

struct GaResult {
  Genome best;
  double best_fitness = 0.0;
  std::vector<double> history;  ///< best-so-far fitness after each generation
  std::int64_t evaluations = 0; ///< genomes scored (cache hits included)
  std::int64_t cache_hits = 0;  ///< scores served from the memo cache
};

class GeneticOptimizer {
 public:
  explicit GeneticOptimizer(GaConfig config);

  /// Runs the evolutionary loop. All functions must be valid; `repair` may
  /// be empty when genomes are unconstrained.
  [[nodiscard]] GaResult run(const InitFn& init, const FitnessFn& fitness,
                             const MutateFn& mutate,
                             const RepairFn& repair = {},
                             const PopulationHook& hook = {}) const;

  /// Swaps a random contiguous segment between two genomes of equal length
  /// (Algorithm 1 line 12). Exposed for direct testing.
  static void segment_swap_crossover(Genome& a, Genome& b, Rng& rng);

  [[nodiscard]] const GaConfig& config() const { return config_; }

 private:
  GaConfig config_;
};

}  // namespace gqa
