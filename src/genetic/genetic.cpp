#include "genetic/genetic.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/contracts.h"
#include "util/thread_pool.h"

namespace gqa {

std::string genome_key(const Genome& genome) {
  std::string key;
  assign_genome_key(genome, key);
  return key;
}

void assign_genome_key(const Genome& genome, std::string& key) {
  key.assign(reinterpret_cast<const char*>(genome.data()),
             genome.size() * sizeof(double));
}

GeneticOptimizer::GeneticOptimizer(GaConfig config) : config_(config) {
  GQA_EXPECTS(config_.population_size >= 2);
  GQA_EXPECTS(config_.generations >= 1);
  GQA_EXPECTS(config_.crossover_prob >= 0.0 && config_.crossover_prob <= 1.0);
  GQA_EXPECTS(config_.mutation_prob >= 0.0 && config_.mutation_prob <= 1.0);
  GQA_EXPECTS(config_.tournament_size >= 1 &&
              config_.tournament_size <= config_.population_size);
  GQA_EXPECTS(config_.elite_count >= 0 &&
              config_.elite_count < config_.population_size);
  GQA_EXPECTS(config_.num_threads >= 1);
}

void GeneticOptimizer::segment_swap_crossover(Genome& a, Genome& b, Rng& rng) {
  GQA_EXPECTS(a.size() == b.size());
  if (a.empty()) return;
  const std::size_t n = a.size();
  std::size_t lo = rng.index(n);
  std::size_t hi = rng.index(n);
  if (lo > hi) std::swap(lo, hi);
  for (std::size_t i = lo; i <= hi; ++i) std::swap(a[i], b[i]);
}

GaResult GeneticOptimizer::run(const InitFn& init, const FitnessFn& fitness,
                               const MutateFn& mutate, const RepairFn& repair,
                               const PopulationHook& hook) const {
  GQA_EXPECTS_MSG(init != nullptr, "GA needs an initializer");
  GQA_EXPECTS_MSG(fitness != nullptr, "GA needs a fitness function");
  GQA_EXPECTS_MSG(mutate != nullptr, "GA needs a mutation operator");

  Rng rng(config_.seed);
  const auto pop_size = static_cast<std::size_t>(config_.population_size);

  std::vector<Genome> population;
  population.reserve(pop_size);
  for (std::size_t i = 0; i < pop_size; ++i) {
    Genome g = init(rng);
    if (repair) repair(g);
    population.push_back(std::move(g));
  }

  GaResult result;
  result.best_fitness = std::numeric_limits<double>::infinity();
  result.history.reserve(static_cast<std::size_t>(config_.generations));

  std::vector<double> scores(pop_size);
  std::vector<Genome> next(pop_size);

  ThreadPool pool(config_.num_threads);
  // Memo cache across generations: elites are re-injected verbatim and
  // tournament winners duplicate, so identical byte patterns recur often.
  std::unordered_map<std::string, double> memo;
  std::vector<std::string> keys(pop_size);
  std::vector<std::size_t> pending;  // population indices that need scoring
  pending.reserve(pop_size);

  // Scores the population into `scores`. Cache lookups and insertions stay
  // on the caller thread; only the pure fitness calls fan out, each writing
  // its own slot — bit-identical to the serial path at any thread count.
  const auto evaluate_population =
      [&](const std::vector<Genome>& population) {
        pending.clear();
        if (config_.memoize_fitness) {
          for (std::size_t i = 0; i < pop_size; ++i) {
            assign_genome_key(population[i], keys[i]);
            const auto it = memo.find(keys[i]);
            if (it != memo.end()) {
              scores[i] = it->second;
              ++result.cache_hits;
            } else {
              // Reserve the slot so duplicates within this generation are
              // computed once; the real score lands after the fan-out.
              memo.emplace(keys[i], 0.0);
              pending.push_back(i);
            }
          }
        } else {
          for (std::size_t i = 0; i < pop_size; ++i) pending.push_back(i);
        }
        pool.parallel_for(pending.size(), [&](std::size_t j) {
          scores[pending[j]] = fitness(population[pending[j]]);
        });
        if (config_.memoize_fitness) {
          for (std::size_t idx : pending) memo[keys[idx]] = scores[idx];
          // Duplicates that hit the reserved placeholder read the real score.
          for (std::size_t i = 0; i < pop_size; ++i) {
            scores[i] = memo[keys[i]];
          }
        }
        result.evaluations += static_cast<std::int64_t>(pop_size);
      };

  for (int gen = 0; gen < config_.generations; ++gen) {
    // Genetic operators (Alg. 1 lines 9-16): each individual may cross with
    // a random partner and may mutate.
    for (std::size_t i = 0; i < pop_size; ++i) {
      if (rng.canonical() < config_.crossover_prob) {
        std::size_t j = rng.index(pop_size - 1);
        if (j >= i) ++j;  // uniform over population \ {i}
        segment_swap_crossover(population[i], population[j], rng);
        if (repair) {
          repair(population[i]);
          repair(population[j]);
        }
      }
      if (rng.canonical() < config_.mutation_prob) {
        mutate(population[i], rng);
        if (repair) repair(population[i]);
      }
    }

    // Evaluation. Track the generation's best index and copy the genome at
    // most once per generation instead of on every improvement.
    evaluate_population(population);
    std::size_t gen_best = 0;
    for (std::size_t i = 1; i < pop_size; ++i) {
      if (scores[i] < scores[gen_best]) gen_best = i;
    }
    if (scores[gen_best] < result.best_fitness) {
      result.best_fitness = scores[gen_best];
      result.best = population[gen_best];
    }
    result.history.push_back(result.best_fitness);
    if (hook) hook(gen, population, scores);

    // Tournament selection (Alg. 1 line 18) into the next generation, with
    // the global elite re-injected so progress is never lost. `next` is a
    // second buffer swapped with `population`: copy-assignment reuses each
    // genome's storage, so selection allocates nothing after generation 0.
    const auto elites = static_cast<std::size_t>(config_.elite_count);
    for (std::size_t k = 0; k < elites; ++k) next[k] = result.best;
    for (std::size_t k = elites; k < pop_size; ++k) {
      std::size_t winner = rng.index(pop_size);
      for (int t = 1; t < config_.tournament_size; ++t) {
        const std::size_t challenger = rng.index(pop_size);
        if (scores[challenger] < scores[winner]) winner = challenger;
      }
      next[k] = population[winner];
    }
    population.swap(next);
  }

  GQA_ENSURES(!result.best.empty() || config_.generations == 0);
  return result;
}

}  // namespace gqa
