// Shared by the driver-matrix and checkpoint tests: the answer every
// counter-stream driver must return.  It is Algorithm 1's martingale over a
// plain RRRCollection, grown by the scalar sample_sequential and selected
// by the one-thread select_seeds: no RRR store, budget, fused kernel, thread
// team or rank.  A driver that matches it matches an independent scalar
// computation, not a second run of its own engine.
#ifndef RIPPLES_TESTS_SCALAR_REFERENCE_HPP
#define RIPPLES_TESTS_SCALAR_REFERENCE_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "imm/imm.hpp"
#include "imm/imm_core.hpp"
#include "imm/sampler.hpp"
#include "imm/select.hpp"

namespace ripples::scalar_reference {

/// The martingale outcome of (\p graph, \p options) on the scalar kernels.
/// Reads only the options that define the experiment: k, epsilon, l, model
/// and seed.
inline detail::MartingaleOutcome solve(const CsrGraph &graph,
                                       const ImmOptions &options) {
  RRRCollection collection;
  PhaseTimers timers;
  return detail::run_imm_martingale(
      graph.num_vertices(), options.k, options.epsilon, options.l,
      [&](std::uint64_t target) {
        sample_sequential(graph, options.model, target, options.seed,
                          collection);
      },
      [&] {
        return select_seeds(graph.num_vertices(), options.k,
                            collection.sets());
      },
      timers);
}

/// Expects \p result to carry \p reference's seeds, theta, |R| and
/// coverage.
inline void expect_matches(const ImmResult &result,
                           const detail::MartingaleOutcome &reference,
                           const std::string &context) {
  EXPECT_EQ(result.seeds, reference.selection.seeds) << context;
  EXPECT_EQ(result.theta, reference.theta) << context;
  EXPECT_EQ(result.num_samples, reference.num_samples) << context;
  EXPECT_EQ(result.coverage_fraction,
            reference.selection.coverage_fraction())
      << context;
}

} // namespace ripples::scalar_reference

#endif // RIPPLES_TESTS_SCALAR_REFERENCE_HPP
