// Work-stealing sampler verification (DESIGN.md §13).  The load-bearing
// claim is byte-identity: because every RRR draw's RNG coordinates derive
// from its global stream index — never from the executor — *every* steal
// schedule must emit the identical collection, hence identical
// seeds/theta/|R|/coverage.  The property harness here sweeps seeded
// schedule perturbations (plus the steal-everything and steal-nothing
// extremes) against a no-steal baseline; the unit tests below pin the chunk
// machinery (partition exactness, overflow guard, inventory gap
// computation) and the steal channel's protocol, and the ledger regression
// pins executing-rank attribution under a forced-steal schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"
#include "imm/sampler.hpp"
#include "imm/steal.hpp"
#include "mpsim/communicator.hpp"
#include "support/metrics.hpp"
#include "support/steal_schedule.hpp"

namespace ripples {
namespace {

constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();

// --- chunk machinery unit tests ---------------------------------------------

TEST(MakeStreamChunks, PartitionsTheStreamExactly) {
  const std::uint64_t from = 10, to = 137, stream = 2, p = 4, chunk = 5;
  const std::vector<detail::ChunkRange> chunks =
      detail::make_stream_chunks(from, to, stream, p, chunk);

  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = leapfrog_first_index(from, stream, p); i < to; i += p)
    expected.push_back(i);

  std::vector<std::uint64_t> covered;
  for (const detail::ChunkRange &c : chunks) {
    EXPECT_EQ(c.stream, stream);
    EXPECT_LE(detail::chunk_draw_count(c, p), chunk);
    for (std::uint64_t i = leapfrog_first_index(c.begin, c.stream, p);
         i < c.end; i += p)
      covered.push_back(i);
  }
  EXPECT_EQ(covered, expected); // disjoint, ordered, complete
}

TEST(MakeStreamChunks, ChunkZeroIsClampedToOne) {
  const std::vector<detail::ChunkRange> chunks =
      detail::make_stream_chunks(0, 8, 1, 2, 0);
  ASSERT_EQ(chunks.size(), 4u); // draws 1, 3, 5, 7 — one per chunk
  for (const detail::ChunkRange &c : chunks)
    EXPECT_EQ(detail::chunk_draw_count(c, 2), 1u);
}

TEST(MakeStreamChunks, OverflowGuardSaturatesNearTheTopOfTheIndexSpace) {
  // chunk * num_streams overflows and begin + span overflows; both must
  // saturate (one clamped chunk) instead of wrapping into an endless loop.
  const std::vector<detail::ChunkRange> chunks =
      detail::make_stream_chunks(kTop - 40, kTop, 3, 4, kTop / 2);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].end, kTop);
  EXPECT_EQ(detail::chunk_draw_count(chunks[0], 4), 10u);
}

TEST(StreamInventory, MergesAdjacentAndOverlappingRanges) {
  detail::StreamInventory inventory;
  inventory.add(0, 64, 128);
  inventory.add(0, 0, 64);    // adjacent below
  inventory.add(0, 100, 160); // overlapping above
  inventory.add(2, 0, 32);    // separate stream
  const std::vector<std::uint64_t> flat = inventory.serialize();
  ASSERT_EQ(flat.size(), 6u); // two triples
  EXPECT_EQ(flat[0], 0u);
  EXPECT_EQ(flat[1], 0u);
  EXPECT_EQ(flat[2], 160u);
  EXPECT_EQ(flat[3], 2u);
  EXPECT_EQ(flat[4], 0u);
  EXPECT_EQ(flat[5], 32u);
}

TEST(MissingRanges, FindsExactlyTheUnexecutedGaps) {
  // Stream 0 executed [0,40) and [60,100); stream 1 never executed.
  const std::vector<std::uint64_t> gathered = {0, 0, 40, 0, 60, 100};
  const std::vector<detail::ChunkRange> missing =
      detail::missing_ranges(gathered, 2, 100);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], (detail::ChunkRange{0, 40, 60}));
  EXPECT_EQ(missing[1], (detail::ChunkRange{1, 0, 100}));
}

TEST(MissingRanges, SkipsGapsContainingNoDrawOfTheStream) {
  // Stream 1 of 4 draws indices 1, 5, 9, ...; executed [0,2) and [5,9)
  // cover draws 1 and 5, and the gap [2,5) holds no stream-1 index, so it
  // must not be reported.  Streams 0, 2 and 3 are fully covered.
  const std::vector<std::uint64_t> gathered = {0, 0, 9, 1, 0, 2,
                                               1, 5, 9, 2, 0, 9, 3, 0, 9};
  EXPECT_TRUE(detail::missing_ranges(gathered, 4, 9).empty());
}

// --- mpsim steal-channel protocol -------------------------------------------

TEST(StealChannel, PublishAcquireHalfSplitAndDrain) {
  using Item = mpsim::Communicator::StealItem;
  std::array<std::vector<std::uint64_t>, 3> got;
  bool rank2_acquire_empty = false;
  bool rank2_pop_empty = false;

  mpsim::Context::run(3, [&](mpsim::Communicator &comm) {
    const int r = comm.world_rank();
    if (r == 0) {
      std::vector<Item> items;
      for (std::uint64_t t = 0; t < 4; ++t)
        items.push_back({t, t * 10, t * 10 + 5});
      comm.steal_publish(items);
    }
    comm.barrier();
    if (r == 1) {
      // The thief splits ceil(4/2) = 2 items off the back of rank 0's
      // queue: one comes back directly, the surplus lands in rank 1's own
      // queue where a subsequent pop (or a peer's steal) finds it.
      Item item;
      if (comm.steal_acquire(item)) got[1].push_back(item.tag);
      if (comm.steal_pop(item)) got[1].push_back(item.tag);
    }
    comm.barrier();
    if (r == 0) {
      Item item;
      while (comm.steal_pop(item)) got[0].push_back(item.tag);
    }
    comm.barrier();
    if (r == 2) {
      Item item;
      rank2_acquire_empty = !comm.steal_acquire(item, /*victim_offset=*/5);
      rank2_pop_empty = !comm.steal_pop(item);
    }
  });

  EXPECT_EQ(got[0], (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(got[1], (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(got[2].empty());
  EXPECT_TRUE(rank2_acquire_empty);
  EXPECT_TRUE(rank2_pop_empty);
}

// --- schedule-perturbation property harness ---------------------------------

const CsrGraph &sweep_graph() {
  static const CsrGraph graph = [] {
    CsrGraph g(barabasi_albert(300, 3, 7));
    assign_uniform_weights(g, 13);
    return g;
  }();
  return graph;
}

ImmOptions sweep_options() {
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 2019;
  options.num_ranks = 4;
  options.steal = StealMode::Off;
  options.steal_chunk = 8;
  options.steal_skew = false;
  return options;
}

struct Outcome {
  std::vector<vertex_t> seeds;
  std::uint64_t theta = 0;
  std::uint64_t num_samples = 0;
  double coverage = 0;
};

Outcome capture(const ImmResult &result) {
  return {result.seeds, result.theta, result.num_samples,
          result.coverage_fraction};
}

void expect_same(const Outcome &actual, const Outcome &expected,
                 const char *context) {
  EXPECT_EQ(actual.seeds, expected.seeds) << context;
  EXPECT_EQ(actual.theta, expected.theta) << context;
  EXPECT_EQ(actual.num_samples, expected.num_samples) << context;
  EXPECT_EQ(actual.coverage, expected.coverage) << context;
}

const Outcome &no_steal_baseline() {
  static const Outcome outcome =
      capture(imm_distributed(sweep_graph(), sweep_options()));
  return outcome;
}

/// One schedule per parameter: 0 = steal-nothing, 1 = steal-everything,
/// 2.. = seeded pseudorandom schedules — 24 perturbations total.
class StealScheduleSweep : public ::testing::TestWithParam<int> {};

TEST_P(StealScheduleSweep, EveryScheduleEmitsTheIdenticalResult) {
  const int perturbation = GetParam();
  steal_schedule::Plan plan;
  switch (perturbation) {
  case 0: plan.mode = steal_schedule::Mode::StealNothing; break;
  case 1: plan.mode = steal_schedule::Mode::StealEverything; break;
  default:
    plan.mode = steal_schedule::Mode::Seeded;
    plan.seed = static_cast<std::uint64_t>(perturbation);
    break;
  }
  steal_schedule::ScopedPlan scoped(plan);

  ImmOptions options = sweep_options();
  options.steal = StealMode::On;
  options.steal_skew = true; // maximal migration pressure: all work homes
                             // on one rank, thieves spread it
  expect_same(capture(imm_distributed(sweep_graph(), options)),
              no_steal_baseline(), "perturbed steal schedule");
}

INSTANTIATE_TEST_SUITE_P(Perturbations, StealScheduleSweep,
                         ::testing::Range(0, 24));

TEST(StealIdentity, SkewWithoutStealingMatchesBaseline) {
  ImmOptions options = sweep_options();
  options.steal_skew = true; // the manufactured fig7 pathology alone
  expect_same(capture(imm_distributed(sweep_graph(), options)),
              no_steal_baseline(), "skew, steal off");
}

TEST(StealIdentity, ThreadedRanksWithStealingMatchBaseline) {
  // Every rank samples on a 3-thread team balanced by the samplers' own
  // dynamic schedule while thieves spread the skewed partition across
  // ranks: both placement levels at once, on both engines.
  ImmOptions options = sweep_options();
  options.steal = StealMode::On;
  options.steal_skew = true;
  options.num_threads = 3;
  expect_same(capture(imm_distributed(sweep_graph(), options)),
              no_steal_baseline(), "steal on, skew, 3 threads");
  options.sampler = SamplerEngine::Fused;
  expect_same(capture(imm_distributed(sweep_graph(), options)),
              no_steal_baseline(), "steal on, skew, 3 threads, fused");
}

TEST(StealIdentity, LeapfrogModePinsStealingAsANoOp) {
  ImmOptions options = sweep_options();
  options.rng_mode = RngMode::LeapfrogLcg;
  const Outcome reference = capture(imm_distributed(sweep_graph(), options));
  options.steal = StealMode::On;
  options.steal_skew = true;
  expect_same(capture(imm_distributed(sweep_graph(), options)), reference,
              "leapfrog + steal on");
}

TEST(StealIdentity, GovernedBudgetComposesWithStealing) {
  // A generous budget governs every admission without degrading; the
  // governor pins stealing and skew off (rank-local admission), so the
  // 2-thread run must still match the ungoverned baseline byte for byte.
  ImmOptions options = sweep_options();
  options.mem_budget = 256u << 20;
  options.steal = StealMode::On;
  options.steal_skew = true;
  options.num_threads = 2;
  ImmResult governed = imm_distributed(sweep_graph(), options);
  EXPECT_FALSE(governed.degraded);
  expect_same(capture(governed), no_steal_baseline(), "governed + steal on");
}

// --- metrics + ledger regression under a forced-steal schedule --------------

TEST(StealLedger, ForcedStealChargesExecutingRanksConsistently) {
  steal_schedule::ScopedPlan scoped(
      {steal_schedule::Mode::StealEverything, 0});

  ImmOptions options = sweep_options();
  options.steal = StealMode::On;
  options.steal_skew = true;
  options.steal_chunk = 2; // many chunks: thieves reliably win steals

  metrics::Counter &chunks =
      metrics::Registry::instance().counter("imm.steal.chunks_stolen");
  metrics::Counter &sets =
      metrics::Registry::instance().counter("imm.steal.sets_stolen");
  metrics::set_enabled(true);
  const std::uint64_t chunks_before = chunks.value();
  const std::uint64_t sets_before = sets.value();
  ImmResult result = imm_distributed(sweep_graph(), options);
  metrics::set_enabled(false);

  EXPECT_GT(chunks.value(), chunks_before);
  EXPECT_GT(sets.value(), sets_before);
  expect_same(capture(result), no_steal_baseline(), "forced-steal ledger run");

  // Ledger attribution: rows charge the executing rank, and the final
  // round's per-rank rrr_sets must still sum to |R| exactly — the
  // invariant behind analyze_trace.py's batch-coverage and sum checks.
  const std::vector<metrics::RoundEntry> &rounds = result.report.rounds;
  ASSERT_FALSE(rounds.empty());
  std::uint32_t last_round = 0;
  for (const metrics::RoundEntry &entry : rounds)
    last_round = std::max(last_round, entry.round);
  std::uint64_t final_sets = 0;
  int executing_ranks = 0;
  for (const metrics::RoundEntry &entry : rounds) {
    if (entry.round != last_round) continue;
    final_sets += entry.rrr_sets;
    if (entry.rrr_sets > 0) ++executing_ranks;
  }
  EXPECT_EQ(final_sets, result.num_samples);
  // Skew homes every draw on one rank; with stealing forced on, at least
  // one thief must have executed (and been charged for) stolen chunks.
  EXPECT_GT(executing_ranks, 1);
}

// --- environment defaults -----------------------------------------------------

/// Sets (or, for nullptr, unsets) one variable for the test's lifetime and
/// restores the ambient value afterwards.
class ScopedEnv {
public:
  ScopedEnv(const char *name, const char *value) : name_(name) {
    if (const char *ambient = std::getenv(name)) saved_ = ambient;
    if (value != nullptr)
      setenv(name, value, 1);
    else
      unsetenv(name);
  }
  ~ScopedEnv() {
    if (saved_)
      setenv(name_, saved_->c_str(), 1);
    else
      unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

private:
  const char *name_;
  std::optional<std::string> saved_;
};

TEST(StealEnv, ReadersAcceptEverySpellingAndDefaultWhenUnsetOrEmpty) {
  {
    ScopedEnv unset("RIPPLES_STEAL", nullptr);
    EXPECT_EQ(steal_mode_from_env(), StealMode::Off);
  }
  const std::pair<const char *, StealMode> spellings[] = {
      {"", StealMode::Off}, {"off", StealMode::Off}, {"on", StealMode::On}};
  for (const auto &[spelling, mode] : spellings) {
    ScopedEnv set("RIPPLES_STEAL", spelling);
    EXPECT_EQ(steal_mode_from_env(), mode) << "'" << spelling << "'";
  }
  {
    ScopedEnv unset("RIPPLES_STEAL_CHUNK", nullptr);
    EXPECT_EQ(steal_chunk_from_env(), 64u);
  }
  {
    ScopedEnv empty("RIPPLES_STEAL_CHUNK", "");
    EXPECT_EQ(steal_chunk_from_env(), 64u);
  }
  ScopedEnv chunk("RIPPLES_STEAL_CHUNK", "17");
  EXPECT_EQ(steal_chunk_from_env(), 17u);
}

using StealEnvDeathTest = ::testing::Test;

TEST(StealEnvDeathTest, TypoedModeIsRejected) {
  EXPECT_EXIT(
      {
        setenv("RIPPLES_STEAL", "onn", 1);
        (void)steal_mode_from_env();
      },
      ::testing::ExitedWithCode(2),
      "RIPPLES_STEAL: expected off.on, got 'onn'");
}

TEST(StealEnvDeathTest, RetiredScopeSpellingsAreRejected) {
  // Scripts written for the four-scope knob must fail loudly: silently
  // mapping either spelling onto `on` or `off` would change what they run.
  for (const char *retired : {"intra", "inter"})
    EXPECT_EXIT(
        {
          setenv("RIPPLES_STEAL", retired, 1);
          (void)steal_mode_from_env();
        },
        ::testing::ExitedWithCode(2),
        "RIPPLES_STEAL: expected off.on, got")
        << "'" << retired << "'";
}

TEST(StealEnvDeathTest, NonPositiveOrMalformedChunkIsRejected) {
  for (const char *bad : {"0", "-3", "12x", " 8", "99999999999999999999999"})
    EXPECT_EXIT(
        {
          setenv("RIPPLES_STEAL_CHUNK", bad, 1);
          (void)steal_chunk_from_env();
        },
        ::testing::ExitedWithCode(2),
        "RIPPLES_STEAL_CHUNK: expected a positive integer")
        << "'" << bad << "'";
}

} // namespace
} // namespace ripples
