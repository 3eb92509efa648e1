// Tests for the end-to-end data-integrity layer (DESIGN.md §14): the
// deterministic retry/backoff schedule behind --verify-collectives, the
// checksummed-collective detection -> retry -> escalate ladder under
// kind=corrupt / kind=flaky injection, the RRR-store scrubbing stack
// (per-block CRCs, page CRCs, journal replay repair), and the end-to-end
// guarantee: a run corrupted at any collective site returns the failure-free
// seed set byte for byte, by retry when the fault is transient and by
// shrink-and-heal when it is sticky.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/budget.hpp"
#include "imm/imm.hpp"
#include "imm/rrr_collection.hpp"
#include "imm/select.hpp"
#include "mpsim/communicator.hpp"
#include "mpsim/integrity.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/steal_schedule.hpp"

#include "fault_probe.hpp"

namespace ripples::mpsim {
namespace {

std::uint64_t counter_value(const char *name) {
  return metrics::Registry::instance().counter(name).value();
}

// --- retry/backoff schedule --------------------------------------------------

TEST(Backoff, RetryDelayIsACappedExponential) {
  using std::chrono::microseconds;
  EXPECT_EQ(retry_delay(1), microseconds{100});
  EXPECT_EQ(retry_delay(2), microseconds{200});
  EXPECT_EQ(retry_delay(3), microseconds{400});
  EXPECT_EQ(retry_delay(4), microseconds{400}); // capped
  EXPECT_EQ(retry_delay(9), microseconds{400}); // stays capped
}

TEST(Backoff, HookObservesTheScheduleWithoutSleeping) {
  std::vector<std::chrono::microseconds> observed;
  {
    ScopedBackoffHook hook(
        [&](std::chrono::microseconds delay) { observed.push_back(delay); });
    const auto start = std::chrono::steady_clock::now();
    for (int attempt = 1; attempt <= kMaxVerifyAttempts; ++attempt)
      backoff_sleep(attempt);
    // The fake clock absorbed the 1.1 ms the real schedule would cost.
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds{100});
  }
  ASSERT_EQ(observed.size(), 4u);
  EXPECT_EQ(observed[0], std::chrono::microseconds{100});
  EXPECT_EQ(observed[1], std::chrono::microseconds{200});
  EXPECT_EQ(observed[2], std::chrono::microseconds{400});
  EXPECT_EQ(observed[3], std::chrono::microseconds{400});
}

TEST(Backoff, ScopedHooksNestAndRestore) {
  int outer = 0, inner = 0;
  ScopedBackoffHook a([&](std::chrono::microseconds) { ++outer; });
  {
    ScopedBackoffHook b([&](std::chrono::microseconds) { ++inner; });
    backoff_sleep(1);
  }
  backoff_sleep(1);
  EXPECT_EQ(inner, 1);
  EXPECT_EQ(outer, 1);
}

// --- verified collectives: detect, retry, escalate ---------------------------

/// Three ranks with verification on and one planned payload fault; the
/// bodies below drive allreduce rounds through the verified exchange.
RunOptions verified_plan(FaultPlan faults) {
  RunOptions options;
  options.num_ranks = 3;
  options.verify_collectives = true;
  options.faults = std::move(faults);
  return options;
}

/// The catch-RankFailed / shrink() retry loop survivors run (the fault_test
/// idiom, reused here for corruption escalation instead of crashes).
template <typename Body>
void run_with_recovery(RunOptions options, Body body) {
  options.recover = true;
  Context::run(options, [&](Communicator &comm) {
    for (;;) {
      try {
        body(comm);
        return;
      } catch (const RankFailed &) {
        (void)comm.shrink();
      }
    }
  });
}

TEST(VerifiedCollectives, CleanRunPaysChecksAndNothingElse) {
  metrics::set_enabled(true);
  const std::uint64_t checks0 = counter_value("integrity.checks");
  const std::uint64_t detections0 =
      counter_value("integrity.corruptions_detected");
  const std::uint64_t retries0 = counter_value("integrity.retries");
  const std::uint64_t escalations0 = counter_value("integrity.escalations");
  std::atomic<int> finishers{0};
  Context::run(verified_plan({}), [&](Communicator &comm) {
    std::vector<std::uint64_t> buffer(8);
    for (int round = 0; round < 4; ++round) {
      std::fill(buffer.begin(), buffer.end(), 1);
      comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
      for (std::uint64_t v : buffer) ASSERT_EQ(v, 3u);
    }
    finishers.fetch_add(1);
  });
  metrics::set_enabled(false);
  EXPECT_EQ(finishers.load(), 3);
  EXPECT_GT(counter_value("integrity.checks"), checks0);
  EXPECT_EQ(counter_value("integrity.corruptions_detected"), detections0);
  EXPECT_EQ(counter_value("integrity.retries"), retries0);
  EXPECT_EQ(counter_value("integrity.escalations"), escalations0);
}

TEST(VerifiedCollectives, TransientCorruptionIsRetriedToTheCleanResult) {
  metrics::set_enabled(true);
  const std::uint64_t detections0 =
      counter_value("integrity.corruptions_detected");
  const std::uint64_t retries0 = counter_value("integrity.retries");
  const std::uint64_t escalations0 = counter_value("integrity.escalations");
  const std::uint64_t injected0 =
      counter_value("integrity.injected_corruptions");
  std::atomic<int> finishers{0};
  Context::run(verified_plan({{1, 1, FaultSpec::Kind::Corrupt}}),
               [&](Communicator &comm) {
                 std::vector<std::uint64_t> buffer(8);
                 for (int round = 0; round < 4; ++round) {
                   std::fill(buffer.begin(), buffer.end(), 1);
                   comm.allreduce(std::span<std::uint64_t>(buffer),
                                  ReduceOp::Sum);
                   // The retransmit healed the flip: every rank sees the
                   // clean sum, corruption never reaches the algorithm.
                   for (std::uint64_t v : buffer) ASSERT_EQ(v, 3u);
                 }
                 finishers.fetch_add(1);
               });
  metrics::set_enabled(false);
  EXPECT_EQ(finishers.load(), 3);
  EXPECT_GT(counter_value("integrity.corruptions_detected"), detections0);
  EXPECT_GT(counter_value("integrity.retries"), retries0);
  EXPECT_GT(counter_value("integrity.injected_corruptions"), injected0);
  EXPECT_EQ(counter_value("integrity.escalations"), escalations0);
}

TEST(VerifiedCollectives, FlakyLinkHealsWithinItsBudget) {
  // attempts=2 fails verification twice; the retry budget is 4, so the
  // third attempt carries a clean checksum and the round completes.
  metrics::set_enabled(true);
  const std::uint64_t retries0 = counter_value("integrity.retries");
  const std::uint64_t flaky0 = counter_value("integrity.injected_flaky");
  std::atomic<int> finishers{0};
  Context::run(
      verified_plan({{2, 1, FaultSpec::Kind::Flaky, /*sticky=*/false,
                      /*attempts=*/2}}),
      [&](Communicator &comm) {
        std::vector<std::uint64_t> buffer(4);
        for (int round = 0; round < 3; ++round) {
          std::fill(buffer.begin(), buffer.end(), 1);
          comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
          for (std::uint64_t v : buffer) ASSERT_EQ(v, 3u);
        }
        finishers.fetch_add(1);
      });
  metrics::set_enabled(false);
  EXPECT_EQ(finishers.load(), 3);
  EXPECT_GE(counter_value("integrity.retries") - retries0, 2u);
  EXPECT_GE(counter_value("integrity.injected_flaky") - flaky0, 2u);
}

TEST(VerifiedCollectives, StickyCorruptionEscalatesToADiagnosedCorrupter) {
  // Every repost re-corrupts, so the retry budget exhausts and the producer
  // of the bad bytes dies with the full coordinates of the failure.
  RunOptions options =
      verified_plan({{1, 1, FaultSpec::Kind::Corrupt, /*sticky=*/true}});
  try {
    Context::run(options, [](Communicator &comm) {
      std::vector<std::uint64_t> buffer(8, 1);
      for (;;) comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
    });
    FAIL() << "expected PayloadCorrupt";
  } catch (const PayloadCorrupt &error) {
    EXPECT_EQ(error.op(), "allreduce");
    EXPECT_EQ(error.site(), 1u);
    EXPECT_EQ(error.rank(), 1);
    EXPECT_EQ(error.attempts(), kMaxVerifyAttempts);
    EXPECT_NE(std::string(error.what()).find("rank 1"), std::string::npos);
  }
}

TEST(VerifiedCollectives, ExhaustedFlakyBudgetEscalatesToo) {
  RunOptions options = verified_plan(
      {{2, 1, FaultSpec::Kind::Flaky, /*sticky=*/false, /*attempts=*/10}});
  try {
    Context::run(options, [](Communicator &comm) {
      std::vector<std::uint64_t> buffer(8, 1);
      for (;;) comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
    });
    FAIL() << "expected PayloadCorrupt";
  } catch (const PayloadCorrupt &error) {
    EXPECT_EQ(error.rank(), 2);
    EXPECT_EQ(error.attempts(), kMaxVerifyAttempts);
  }
}

TEST(VerifiedCollectives, StickyCorruptionWithRecoveryShrinksAndFinishes) {
  metrics::set_enabled(true);
  const std::uint64_t escalations0 = counter_value("integrity.escalations");
  const std::uint64_t deaths0 = counter_value("mpsim.faults.dead_ranks");
  RunOptions options =
      verified_plan({{1, 1, FaultSpec::Kind::Corrupt, /*sticky=*/true}});
  std::atomic<int> finishers{0};
  run_with_recovery(options, [&](Communicator &comm) {
    std::vector<std::uint64_t> buffer(8);
    for (int round = 0; round < 4; ++round) {
      std::fill(buffer.begin(), buffer.end(), 1);
      comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
      for (std::uint64_t v : buffer)
        ASSERT_EQ(v, static_cast<std::uint64_t>(comm.size()));
    }
    finishers.fetch_add(1);
  });
  metrics::set_enabled(false);
  // The sticky corrupter cost exactly one rank, not the run.
  EXPECT_EQ(finishers.load(), 2);
  EXPECT_GT(counter_value("integrity.escalations"), escalations0);
  EXPECT_EQ(counter_value("mpsim.faults.dead_ranks"), deaths0 + 1);
}

TEST(VerifiedCollectives, CorruptionWithVerificationOffIsSilentlyWrong) {
  // The negative control for the whole layer: with verification off the
  // planted flip reaches the algorithm unnoticed — wrong bytes, no
  // exception, no integrity checks performed.
  metrics::set_enabled(true);
  const std::uint64_t checks0 = counter_value("integrity.checks");
  RunOptions options;
  options.num_ranks = 2;
  options.faults = {{1, 0, FaultSpec::Kind::Corrupt}};
  Context::run(options, [](Communicator &comm) {
    std::vector<std::uint64_t> buffer(8, 1);
    comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
    // Site 0 flips bit 0 of rank 1's contribution: slot 0 contributes 0
    // instead of 1, and both ranks adopt the corrupted sum.
    EXPECT_EQ(buffer[0], 1u);
    for (std::size_t i = 1; i < buffer.size(); ++i) EXPECT_EQ(buffer[i], 2u);
  });
  metrics::set_enabled(false);
  EXPECT_EQ(counter_value("integrity.checks"), checks0);
}

} // namespace
} // namespace ripples::mpsim

// --- RRR-store scrubbing ------------------------------------------------------

namespace ripples {
namespace {

std::uint64_t counter_value(const char *name) {
  return metrics::Registry::instance().counter(name).value();
}

// `--scrub-rrr` replaced the RIPPLES_SCRUB_RRR variable; this cell keeps its
// reader's name and pins the same three spellings on apply_option_flags.
TEST(ScrubEnv, ModeReaderParsesTheThreeSpellings) {
  const auto scrub_from_flags = [](std::vector<const char *> flags) {
    flags.insert(flags.begin(), "integrity_test");
    const CommandLine cli(static_cast<int>(flags.size()), flags.data());
    ImmOptions options;
    apply_option_flags(cli, options);
    return options.scrub_rrr;
  };
  EXPECT_EQ(scrub_from_flags({"--scrub-rrr", "off"}), ScrubMode::Off);
  EXPECT_EQ(scrub_from_flags({"--scrub-rrr", "on"}), ScrubMode::On);
  EXPECT_EQ(scrub_from_flags({"--scrub-rrr", "paranoid"}), ScrubMode::Paranoid);
  EXPECT_EQ(scrub_from_flags({}), ScrubMode::Off);
  EXPECT_STREQ(to_string(ScrubMode::Off), "off");
  EXPECT_STREQ(to_string(ScrubMode::On), "on");
  EXPECT_STREQ(to_string(ScrubMode::Paranoid), "paranoid");
}

std::vector<RRRSet> random_sets(std::size_t count, std::uint64_t seed,
                                vertex_t universe = 5000) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> size_dist(0, 40);
  std::uniform_int_distribution<vertex_t> member_dist(0, universe - 1);
  std::vector<RRRSet> sets(count);
  for (RRRSet &set : sets) {
    std::set<vertex_t> members;
    const std::size_t want = size_dist(rng);
    while (members.size() < want) members.insert(member_dist(rng));
    set.assign(members.begin(), members.end());
  }
  return sets;
}

/// Repairs every block \p verify_blocks reports from the original \p sets
/// and asserts the collection verifies clean and round-trips afterwards.
void repair_and_check(CompressedRRRCollection &compressed,
                      const std::vector<RRRSet> &sets) {
  const std::vector<std::size_t> corrupt = compressed.verify_blocks();
  ASSERT_FALSE(corrupt.empty());
  for (const std::size_t block : corrupt) {
    const auto [first, last] = compressed.block_set_range(block);
    const std::vector<RRRSet> originals(sets.begin() + first,
                                        sets.begin() + last);
    compressed.repair_block(block, originals);
  }
  EXPECT_TRUE(compressed.verify_blocks().empty());
  std::vector<vertex_t> decoded;
  for (std::size_t j = 0; j < sets.size(); ++j) {
    compressed.decode_set(j, decoded);
    ASSERT_EQ(decoded, sets[j]) << "set " << j;
  }
}

TEST(CompressedScrub, IncrementalChecksumsDetectAFlipAndRepairRestoresIt) {
  const std::vector<RRRSet> sets = random_sets(600, 31);
  CompressedRRRCollection compressed;
  compressed.enable_checksums();
  for (const RRRSet &set : sets) compressed.append(set);
  EXPECT_TRUE(compressed.checksums_enabled());
  EXPECT_TRUE(compressed.verify_blocks().empty());

  compressed.flip_payload_bit(0);
  const std::vector<std::size_t> corrupt = compressed.verify_blocks();
  ASSERT_EQ(corrupt.size(), 1u);
  EXPECT_EQ(corrupt[0], 0u); // bit 0 lives in the first block
  repair_and_check(compressed, sets);
}

TEST(CompressedScrub, EnableAfterAppendHashesTheBacklog) {
  const std::vector<RRRSet> sets = random_sets(600, 47);
  CompressedRRRCollection compressed;
  for (const RRRSet &set : sets) compressed.append(set);
  EXPECT_FALSE(compressed.checksums_enabled());
  EXPECT_TRUE(compressed.verify_blocks().empty()); // disabled: nothing to say

  compressed.enable_checksums();
  EXPECT_TRUE(compressed.verify_blocks().empty());
  compressed.flip_payload_bit(987654321);
  EXPECT_EQ(compressed.verify_blocks().size(), 1u);
  repair_and_check(compressed, sets);
}

TEST(CompressedScrub, OpenTailBlockIsCoveredToo) {
  // 10 sets: the only block is the open tail, checked via the running CRC.
  const std::vector<RRRSet> sets = random_sets(10, 53);
  CompressedRRRCollection compressed;
  compressed.enable_checksums();
  for (const RRRSet &set : sets) compressed.append(set);
  ASSERT_EQ(compressed.num_blocks(), 1u);
  EXPECT_TRUE(compressed.verify_blocks().empty());
  compressed.flip_payload_bit(13);
  EXPECT_EQ(compressed.verify_blocks(), std::vector<std::size_t>{0});
  repair_and_check(compressed, sets);
}

TEST(CompressedScrub, NonIdenticalRegenerationIsRefused) {
  const std::vector<RRRSet> sets = random_sets(300, 61);
  CompressedRRRCollection compressed;
  compressed.enable_checksums();
  for (const RRRSet &set : sets) compressed.append(set);
  compressed.flip_payload_bit(0);

  // "Regenerated" sets with different contents encode to a different byte
  // length — the repair must refuse rather than shift the arena.
  const auto [first, last] = compressed.block_set_range(0);
  std::vector<RRRSet> wrong(last - first);
  for (RRRSet &set : wrong) set = {1, 2, 3, 4, 5, 6, 7};
  try {
    compressed.repair_block(0, wrong);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error &error) {
    EXPECT_NE(std::string(error.what()).find("bit-identical"),
              std::string::npos)
        << error.what();
  }
}

// --- RRRStore: scrub passes, journal replay, repair --------------------------

/// Deterministic replay-safe generator (the memory_budget_test shape): set j
/// is {j % 97, ..., j % 97 + 19}, identical on every call.
void fill_window(RRRCollection &scratch, std::uint64_t first,
                 std::uint64_t count) {
  for (std::uint64_t j = first; j < first + count; ++j) {
    RRRSet set(20);
    for (std::size_t i = 0; i < set.size(); ++i)
      set[i] = static_cast<vertex_t>(j % 97 + i);
    scratch.add(std::move(set));
  }
}

detail::RRRStore::Policy scrub_policy(ScrubMode mode) {
  detail::RRRStore::Policy policy;
  policy.compress = CompressMode::Always;
  policy.scrub = mode;
  return policy;
}

/// A selection pick that takes the argmax and hands the first round's
/// counters — the count pass's result — to \p counts, after \p each_round.
SelectionHooks observing_pick(std::vector<std::uint32_t> &counts,
                              std::function<void(std::uint32_t)> each_round =
                                  [](std::uint32_t) {}) {
  SelectionHooks hooks;
  hooks.pick = [&counts, each_round](std::uint32_t round,
                                     std::span<const std::uint32_t> counters,
                                     std::span<const std::uint8_t> selected) {
    if (round == 0) counts.assign(counters.begin(), counters.end());
    each_round(round);
    return argmax_counter(counters, selected);
  };
  return hooks;
}

TEST(RRRStoreScrub, FlippedBitIsRepairedBeforeSelection) {
  metrics::set_enabled(true);
  const std::uint64_t passes0 = counter_value("integrity.scrub_passes");
  const std::uint64_t corrupt0 =
      counter_value("integrity.scrub_corrupt_blocks");
  const std::uint64_t repaired0 =
      counter_value("integrity.scrub_repaired_blocks");

  detail::RRRStore clean(scrub_policy(ScrubMode::On));
  clean.extend_window(0, 2000, fill_window);
  const SelectionResult reference = clean.select(120, 5, 1);

  detail::RRRStore damaged(scrub_policy(ScrubMode::On));
  damaged.extend_window(0, 2000, fill_window);
  ASSERT_TRUE(damaged.flip_stored_bit(123456));
  const SelectionResult healed = damaged.select(120, 5, 1);
  metrics::set_enabled(false);

  EXPECT_EQ(healed.seeds, reference.seeds);
  EXPECT_EQ(healed.covered_samples, reference.covered_samples);
  EXPECT_GE(counter_value("integrity.scrub_passes") - passes0, 2u);
  EXPECT_GE(counter_value("integrity.scrub_corrupt_blocks") - corrupt0, 1u);
  EXPECT_GE(counter_value("integrity.scrub_repaired_blocks") - repaired0, 1u);
}

TEST(RRRStoreScrub, MultipleDamagedBlocksAreAllRepaired) {
  detail::RRRStore clean(scrub_policy(ScrubMode::On));
  clean.extend_window(0, 3000, fill_window);
  const SelectionResult reference = clean.select(120, 8, 1);

  detail::RRRStore damaged(scrub_policy(ScrubMode::On));
  damaged.extend_window(0, 3000, fill_window);
  for (std::size_t bit : {std::size_t{5}, std::size_t{40000},
                          std::size_t{999999}})
    ASSERT_TRUE(damaged.flip_stored_bit(bit));
  EXPECT_EQ(damaged.select(120, 8, 1).seeds, reference.seeds);
}

TEST(RRRStoreScrub, ParanoidScrubsBeforeTheCountingKernels) {
  // Damage before selection, and again inside every round's pick: only a
  // scrub before the count pass gives the first pick the clean counts, and
  // only one between each pick and its round's search keeps the seeds the
  // clean store's.  One pass and one repair per round, plus the first.
  constexpr vertex_t n = 120;
  constexpr std::uint32_t k = 5;
  detail::RRRStore clean(scrub_policy(ScrubMode::Paranoid));
  clean.extend_window(0, 1500, fill_window);
  std::vector<std::uint32_t> expected;
  const SelectionResult reference =
      clean.select(n, k, 3, observing_pick(expected));

  detail::RRRStore damaged(scrub_policy(ScrubMode::Paranoid));
  damaged.extend_window(0, 1500, fill_window);
  ASSERT_TRUE(damaged.flip_stored_bit(777));
  metrics::set_enabled(true);
  const std::uint64_t passes0 = counter_value("integrity.scrub_passes");
  const std::uint64_t repaired0 =
      counter_value("integrity.scrub_repaired_blocks");
  std::vector<std::uint32_t> counted;
  const SelectionResult healed =
      damaged.select(n, k, 3, observing_pick(counted, [&](std::uint32_t i) {
                       EXPECT_TRUE(damaged.flip_stored_bit(1000 + 4099 * i));
                     }));
  metrics::set_enabled(false);
  EXPECT_EQ(counted, expected);
  EXPECT_EQ(healed.seeds, reference.seeds);
  EXPECT_EQ(healed.covered_samples, reference.covered_samples);
  EXPECT_EQ(counter_value("integrity.scrub_passes") - passes0, k + 1);
  EXPECT_EQ(counter_value("integrity.scrub_repaired_blocks") - repaired0,
            k + 1);
}

TEST(RRRStoreScrub, OffModeNeverScrubs) {
  detail::RRRStore store(scrub_policy(ScrubMode::Off));
  store.extend_window(0, 500, fill_window);
  EXPECT_EQ(store.scrub(), 0u);
}

TEST(RRRStoreScrub, ExplicitScrubRepairsAcrossAdmissionChunks) {
  // Small chunks: the journal holds many windows per block, so repair has
  // to stitch a block back together from several replayed windows.
  detail::RRRStore::Policy policy = scrub_policy(ScrubMode::On);
  policy.chunk = 64; // 4 windows per 256-set block
  detail::RRRStore store(policy);
  store.extend_window(0, 1024, fill_window);
  ASSERT_TRUE(store.flip_stored_bit(2048));
  EXPECT_EQ(store.scrub(), 1u);
  EXPECT_EQ(store.scrub(), 0u); // second pass finds nothing left
}

TEST(RRRStoreScrub, DamagedBitmapRecordsAreRepairedByteIdentically) {
  // n = 120: W = 4 words, so every 20-member set of fill_window is a bitmap
  // record in both representations (an 18-byte record against its 21-byte
  // delta list).  A flipped bit in a bitmap is repaired from the replayed
  // window: the block's CRC matches again and the counts are the clean
  // store's.
  detail::RRRStore::Policy policy = scrub_policy(ScrubMode::On);
  policy.num_vertices = 120;
  detail::RRRStore clean(policy);
  clean.extend_window(0, 1500, fill_window);
  std::vector<std::uint32_t> expected;
  (void)clean.select(120, 1, 1, observing_pick(expected));
  metrics::HistogramData sizes;
  clean.record_sizes(sizes);
  EXPECT_EQ(clean.total_associations(), 1500u * 20);

  detail::RRRStore damaged(policy);
  damaged.extend_window(0, 1500, fill_window);
  EXPECT_EQ(damaged.footprint_bytes(), clean.footprint_bytes());
  // Byte 18 * 700 + 9 lies inside the bitmap of set 700 (records are 18
  // bytes: a 2-byte header and 16 bitmap bytes), in block 2.
  ASSERT_TRUE(damaged.flip_stored_bit((18 * 700 + 9) * 8 + 3));
  EXPECT_EQ(damaged.scrub(), 1u);
  EXPECT_EQ(damaged.scrub(), 0u); // the repaired bytes verify clean
  std::vector<std::uint32_t> counted;
  (void)damaged.select(120, 1, 1, observing_pick(counted));
  EXPECT_EQ(counted, expected);
  EXPECT_EQ(damaged.select(120, 6, 1).seeds, clean.select(120, 6, 1).seeds);
}

TEST(RRRStoreScrub, UnreplayableGeneratorIsDiagnosed) {
  // A generator whose output drifts between calls breaks the bit-identical
  // replay contract; the scrub must say so instead of "repairing" the
  // arena with different bytes.
  detail::RRRStore store(scrub_policy(ScrubMode::On));
  auto calls = std::make_shared<int>(0);
  store.extend_window(
      0, 600, [calls](RRRCollection &scratch, std::uint64_t first,
                      std::uint64_t count) {
        const std::size_t members = 5 + static_cast<std::size_t>(*calls);
        ++*calls;
        for (std::uint64_t j = first; j < first + count; ++j) {
          RRRSet set(members);
          for (std::size_t i = 0; i < set.size(); ++i)
            set[i] = static_cast<vertex_t>(j % 50 + i);
          scratch.add(std::move(set));
        }
      });
  ASSERT_TRUE(store.flip_stored_bit(99));
  EXPECT_THROW((void)store.scrub(), std::runtime_error);
}

// --- end-to-end: drivers under verification and scrubbing --------------------

CsrGraph healing_graph() {
  CsrGraph graph(barabasi_albert(400, 3, 11));
  assign_uniform_weights(graph, 12);
  return graph;
}

ImmOptions healing_options() {
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 2019;
  options.num_ranks = 3;
  return options;
}

TEST(ImmIntegrity, VerificationOnAFaultFreeRunChangesNothing) {
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.sampler = SamplerEngine::Fused;
  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);

  options.verify_collectives = true;
  const ImmResult verified = imm_distributed(graph, options);
  EXPECT_EQ(verified.seeds, clean.seeds);
  EXPECT_EQ(verified.theta, clean.theta);
  EXPECT_EQ(verified.num_samples, clean.num_samples);
}

TEST(ImmIntegrity, ScrubbedGovernedRunsMatchTheUngovernedSeeds) {
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  const ImmResult plain = imm_sequential(graph, options);

  // Every driver scrubs before every selection: at least one pass per
  // ledger row (one per round, per rank under imm_distributed).  Every row
  // here selects: this input tops up theta, so the final selection is
  // computed rather than reused.
  metrics::set_enabled(true);
  auto scrubbed_run = [&](const char *driver, auto solve,
                          const ImmOptions &scrubbed) {
    const std::uint64_t passes0 = counter_value("integrity.scrub_passes");
    const ImmResult result = solve(graph, scrubbed);
    const std::uint64_t passes =
        counter_value("integrity.scrub_passes") - passes0;
    EXPECT_GT(passes, 0u) << driver << " " << to_string(scrubbed.scrub_rrr);
    EXPECT_GE(passes, result.report.rounds.size())
        << driver << " " << to_string(scrubbed.scrub_rrr);
    return result;
  };
  for (ScrubMode mode : {ScrubMode::On, ScrubMode::Paranoid}) {
    ImmOptions scrubbed = options;
    scrubbed.rrr_compress = CompressMode::Always;
    scrubbed.scrub_rrr = mode;
    const ImmResult seq = scrubbed_run("seq", imm_sequential, scrubbed);
    EXPECT_EQ(seq.seeds, plain.seeds) << to_string(mode);
    EXPECT_EQ(seq.theta, plain.theta) << to_string(mode);
    const ImmResult mt = scrubbed_run("mt", imm_multithreaded, scrubbed);
    EXPECT_EQ(mt.seeds, plain.seeds) << to_string(mode);
    const ImmResult dist = scrubbed_run("dist", imm_distributed, scrubbed);
    EXPECT_EQ(dist.seeds, plain.seeds) << to_string(mode);
  }
  metrics::set_enabled(false);
}

TEST(ImmCorruptionHealing, TransientCorruptionRetriesToTheCleanSeeds) {
  // Non-sticky flips at every early collective site: the retransmit heals
  // each one, so no rank dies (recovery stays off) and the seeds are the
  // failure-free seeds byte for byte.
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.sampler = SamplerEngine::Fused;
  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);

  metrics::set_enabled(true);
  const std::uint64_t escalations0 = counter_value("integrity.escalations");
  options.verify_collectives = true;
  for (std::uint64_t site = 0; site <= 12; ++site) {
    options.fault_plan = "rank=1,site=" + std::to_string(site) +
                         ",kind=corrupt";
    const ImmResult retried =
        fault_probe::expect_fired(options.fault_plan, {fault_probe::kRetries},
                                  [&] { return imm_distributed(graph, options); });
    EXPECT_EQ(retried.seeds, clean.seeds)
        << "retried seed set diverged for " << options.fault_plan;
  }
  metrics::set_enabled(false);
  EXPECT_EQ(counter_value("integrity.escalations"), escalations0);
}

TEST(ImmCorruptionHealing, FlakyLinksAreAbsorbedByRetries) {
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.sampler = SamplerEngine::Fused;
  const ImmResult clean = imm_distributed(graph, options);

  options.verify_collectives = true;
  fault_probe::ScopedMetrics metrics_on;
  for (std::uint64_t site : {std::uint64_t{0}, std::uint64_t{5},
                             std::uint64_t{9}}) {
    options.fault_plan = "rank=2,site=" + std::to_string(site) +
                         ",kind=flaky,attempts=2";
    const ImmResult retried = fault_probe::expect_fired(
        options.fault_plan, {fault_probe::kFlaky, fault_probe::kRetries},
        [&] { return imm_distributed(graph, options); });
    EXPECT_EQ(retried.seeds, clean.seeds)
        << "flaky seed set diverged for " << options.fault_plan;
  }
}

TEST(ImmCorruptionHealing,
     StickyCorruptionAtEveryCollectiveSiteHealsBitIdentically) {
  // The acceptance sweep: a sticky corrupter at each early collective site
  // of a fused run exhausts its retry budget, dies with the
  // diagnosis, and the survivors shrink and regenerate its samples — the
  // healed run must return the failure-free seed set exactly.
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.sampler = SamplerEngine::Fused;
  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);

  options.verify_collectives = true;
  options.recover_failures = true;
  fault_probe::ScopedMetrics metrics_on;
  for (int rank = 0; rank < options.num_ranks; ++rank) {
    for (std::uint64_t site = 0; site <= 12; ++site) {
      options.fault_plan = "rank=" + std::to_string(rank) +
                           ",site=" + std::to_string(site) +
                           ",kind=corrupt,sticky";
      const ImmResult healed = fault_probe::expect_fired(
          options.fault_plan,
          {fault_probe::kEscalations, fault_probe::kShrinks},
          [&] { return imm_distributed(graph, options); });
      EXPECT_EQ(healed.seeds, clean.seeds)
          << "healed seed set diverged for " << options.fault_plan;
    }
  }
}

TEST(ImmStealCorruption, StickyCorruptionAtStealSitesHealsToo) {
  // With the skewed partition and steal-everything forced, early sites land
  // on steal-channel publishes/acquires as well as collectives; the Slot
  // CRCs route a sticky corrupter into the same shrink-and-heal path.
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);

  steal_schedule::ScopedPlan forced({steal_schedule::Mode::StealEverything, 0});
  options.steal = StealMode::On;
  options.steal_skew = true;
  options.verify_collectives = true;
  {
    const ImmResult stealing = imm_distributed(graph, options);
    ASSERT_EQ(stealing.seeds, clean.seeds) << "fault-free stealing run";
  }

  // Which operation a site names here is timing-dependent, and a corrupt
  // plan fires only on one that carries a payload: ranks 1 and 2 never
  // flip anything at site 0, and under load any site index may miss on
  // every rank.  So a plan that did not fire must simply leave the clean
  // seeds, every plan that fired must heal, and a floor of a third of the
  // plans must fire (a loaded host fires 13-19 of the 21).
  options.recover_failures = true;
  fault_probe::ScopedMetrics metrics_on;
  int plans = 0;
  int fired = 0;
  for (int rank = 0; rank < options.num_ranks; ++rank) {
    for (std::uint64_t site = 0; site <= 12; site += 2) {
      ++plans;
      options.fault_plan = "rank=" + std::to_string(rank) +
                           ",site=" + std::to_string(site) +
                           ",kind=corrupt,sticky";
      const std::uint64_t escalations0 =
          fault_probe::value(fault_probe::kEscalations);
      const std::uint64_t shrinks0 = fault_probe::value(fault_probe::kShrinks);
      const ImmResult healed = imm_distributed(graph, options);
      EXPECT_EQ(healed.seeds, clean.seeds)
          << "stealing healed seed set diverged for " << options.fault_plan;
      if (fault_probe::value(fault_probe::kEscalations) == escalations0)
        continue;
      ++fired;
      EXPECT_GT(fault_probe::value(fault_probe::kShrinks), shrinks0)
          << options.fault_plan << " escalated but nothing healed";
    }
  }
  EXPECT_GE(fired, plans / 3) << "only " << fired << " of " << plans
                              << " sticky plans fired";
}

} // namespace
} // namespace ripples
