/// \file ablation_rng_streams.cpp
/// \brief Ablation for design decision #5 (DESIGN.md): parallel
/// pseudorandom-stream discipline in the distributed sampler.
///
/// The paper stresses that "accurate generation of pseudorandom numbers in
/// parallel is critical to guarantee the approximation bounds" and adopts
/// leap-frog LCG splitting.  This bench compares three disciplines at equal
/// rank counts:
///
///   counter   — per-sample Philox streams (library default);
///   leapfrog  — the paper's leap-frog split of one global LCG;
///   naive     — every rank seeds the SAME LCG (the bug the paper guards
///               against): ranks draw identical subsequences, so the
///               collection R collapses to p copies of one rank's samples.
///
/// Reported per discipline: fraction of duplicated samples across ranks and
/// the Monte-Carlo influence of the selected seeds.  The naive scheme's
/// duplicate fraction approaches (p-1)/p and its effective sample count
/// drops by p, which is exactly the failure mode stream splitting prevents.
///
/// The drivers sample counter streams only, so this bench is where the
/// paper's leap-frog discipline is kept and checked: it exits 1 unless, at
/// every p, naive-same-seed duplicates at least the samples of all ranks
/// but one, and leap-frog duplicates fewer than naive and no more than
/// kLeapfrogMargin away from counter.
#include <cmath>
#include <map>

#include "bench_common.hpp"

using namespace ripples;
using namespace ripples::bench;

namespace {

enum class Discipline { Counter, Leapfrog, NaiveSameSeed };

const char *name_of(Discipline d) {
  switch (d) {
  case Discipline::Counter: return "counter";
  case Discipline::Leapfrog: return "leapfrog";
  case Discipline::NaiveSameSeed: return "naive-same-seed";
  }
  return "?";
}

/// Generates theta samples split across p simulated ranks under the given
/// discipline, returning the union (all ranks' partitions concatenated).
std::vector<RRRSet> sample_with_discipline(const CsrGraph &graph,
                                           std::uint64_t theta, int p,
                                           std::uint64_t seed, Discipline d) {
  std::vector<RRRSet> all;
  all.reserve(theta);
  for (int rank = 0; rank < p; ++rank) {
    RRRGenerator generator(graph);
    std::uint64_t count =
        theta / static_cast<std::uint64_t>(p) +
        (static_cast<std::uint64_t>(rank) < theta % static_cast<std::uint64_t>(p)
             ? 1
             : 0);
    switch (d) {
    case Discipline::Counter: {
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t global = static_cast<std::uint64_t>(rank) +
                               i * static_cast<std::uint64_t>(p);
        Philox4x32 rng = sample_stream(seed, global);
        RRRSet set;
        generator.generate_random_root(DiffusionModel::IndependentCascade, rng,
                                       set);
        all.push_back(std::move(set));
      }
      break;
    }
    case Discipline::Leapfrog: {
      Lcg64 rng = Lcg64(seed).leapfrog(static_cast<std::uint64_t>(rank),
                                       static_cast<std::uint64_t>(p));
      for (std::uint64_t i = 0; i < count; ++i) {
        RRRSet set;
        generator.generate_random_root(DiffusionModel::IndependentCascade, rng,
                                       set);
        all.push_back(std::move(set));
      }
      break;
    }
    case Discipline::NaiveSameSeed: {
      Lcg64 rng(seed); // the bug: every rank consumes the same sequence
      for (std::uint64_t i = 0; i < count; ++i) {
        RRRSet set;
        generator.generate_random_root(DiffusionModel::IndependentCascade, rng,
                                       set);
        all.push_back(std::move(set));
      }
      break;
    }
    }
  }
  return all;
}

double duplicate_fraction(const std::vector<RRRSet> &samples) {
  std::map<RRRSet, int> histogram;
  for (const RRRSet &sample : samples) ++histogram[sample];
  std::size_t duplicates = samples.size() - histogram.size();
  return static_cast<double>(duplicates) / static_cast<double>(samples.size());
}

/// Largest |leapfrog - counter| duplicate-fraction gap the check accepts:
/// both sit at the birthday-collision floor (~0.2 at the ctest's config),
/// far below naive-same-seed's (p-1)/p.
constexpr double kLeapfrogMargin = 0.1;

} // namespace

int main(int argc, char **argv) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/0.02);
  const auto k = static_cast<std::uint32_t>(cli.get("k", std::int64_t{20}));
  const auto theta =
      static_cast<std::uint64_t>(cli.get("theta", std::int64_t{4000}));
  const auto trials =
      static_cast<std::uint32_t>(cli.get("trials", std::int64_t{300}));

  CsrGraph graph = build_input("soc-Epinions1", config,
                               DiffusionModel::IndependentCascade);
  print_input_banner("soc-Epinions1", graph, config);

  std::vector<int> rank_counts = {2, 8};
  if (config.full) rank_counts = {2, 4, 8, 16, 32};

  Table table("Ablation: parallel RNG stream discipline (IC)",
              {"Ranks", "Discipline", "DuplicateFrac", "EffectiveSamples",
               "Influence", "StdErr"});

  bool disciplines_hold = true;
  for (int p : rank_counts) {
    std::map<Discipline, double> dups;
    for (Discipline d : {Discipline::Counter, Discipline::Leapfrog,
                         Discipline::NaiveSameSeed}) {
      std::vector<RRRSet> samples =
          sample_with_discipline(graph, theta, p, config.seed, d);
      double dup = duplicate_fraction(samples);
      dups[d] = dup;
      SelectionResult selection =
          select_seeds(graph.num_vertices(), k, samples);
      InfluenceEstimate influence = estimate_influence(
          graph, selection.seeds, DiffusionModel::IndependentCascade, trials,
          config.seed + 5);
      table.new_row()
          .add(p)
          .add(name_of(d))
          .add(dup, 3)
          .add(static_cast<std::uint64_t>(
              (1.0 - dup) * static_cast<double>(samples.size())))
          .add(influence.mean, 1)
          .add(influence.std_error, 1);
    }
    // Naive ranks replay one sequence, so at most the largest rank's
    // ceil(theta/p) samples are distinct: (p-1)/p when p divides theta.
    const auto largest_rank =
        static_cast<double>((theta + static_cast<std::uint64_t>(p) - 1) /
                            static_cast<std::uint64_t>(p));
    const double naive_floor =
        1.0 - largest_rank / static_cast<double>(theta);
    const double counter = dups[Discipline::Counter];
    const double leapfrog = dups[Discipline::Leapfrog];
    const double naive = dups[Discipline::NaiveSameSeed];
    if (naive < naive_floor) {
      std::fprintf(stderr,
                   "FAIL p=%d: naive-same-seed duplicate fraction %.3f is "
                   "below %.3f\n",
                   p, naive, naive_floor);
      disciplines_hold = false;
    }
    if (leapfrog >= naive || std::abs(leapfrog - counter) > kLeapfrogMargin) {
      std::fprintf(stderr,
                   "FAIL p=%d: leapfrog duplicate fraction %.3f must stay "
                   "below naive's %.3f and within %.2f of counter's %.3f\n",
                   p, leapfrog, naive, kLeapfrogMargin, counter);
      disciplines_hold = false;
    }
  }

  table.emit(config.csv_path);
  std::printf("\nExpected: counter and leapfrog keep duplicates near the\n"
              "birthday-collision floor independent of p; naive-same-seed\n"
              "duplicates ~(p-1)/p of its samples, shrinking the effective\n"
              "collection by p and (on tight budgets) degrading influence.\n");
  return disciplines_hold ? 0 : 1;
}
