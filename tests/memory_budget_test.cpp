// Tests for the memory-pressure resilience subsystem (DESIGN.md §12): the
// delta+varint compressed RRR representation, the MemoryTracker budget and
// sticky oom-fault semantics, the RRRStore degradation ladder, the
// certified-epsilon closed form, and end-to-end driver determinism under a
// budget and under forced compression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/budget.hpp"
#include "imm/imm.hpp"
#include "imm/rrr_collection.hpp"
#include "imm/sampler_fused.hpp"
#include "imm/select.hpp"
#include "imm/theta.hpp"
#include "support/memory.hpp"
#include "support/metrics.hpp"

namespace ripples {
namespace {

// --- compressed representation: round-trip properties ------------------------

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

TEST(CompressedRRR, RoundTripsRandomSetsExactly) {
  const std::vector<RRRSet> sets = random_sets(1000, 99);
  CompressedRRRCollection compressed;
  std::size_t associations = 0;
  for (const RRRSet &set : sets) {
    compressed.append(set);
    associations += set.size();
  }
  ASSERT_EQ(compressed.size(), sets.size());
  EXPECT_EQ(compressed.total_associations(), associations);

  std::vector<vertex_t> decoded;
  for (std::size_t j = 0; j < sets.size(); ++j) {
    compressed.decode_set(j, decoded);
    EXPECT_EQ(decoded, sets[j]) << "set " << j;
  }
}

TEST(CompressedRRR, RoundTripsEdgeCaseSets) {
  // Empty set, singleton, adjacent ids (delta 1), and ids at the top of the
  // 32-bit range (worst-case varint width) all survive the codec.
  const std::vector<RRRSet> sets = {
      {},
      {7},
      {0, 1, 2, 3, 4},
      {0},
      {4294967290u, 4294967294u, 4294967295u},
      {},
      {123456789u},
  };
  CompressedRRRCollection compressed;
  for (const RRRSet &set : sets) compressed.append(set);
  ASSERT_EQ(compressed.size(), sets.size());

  std::vector<vertex_t> decoded;
  for (std::size_t j = 0; j < sets.size(); ++j) {
    compressed.decode_set(j, decoded);
    EXPECT_EQ(decoded, sets[j]) << "set " << j;
  }
}

TEST(CompressedRRR, CursorDecodeAndSkipAgreeWithRandomAccess) {
  const std::vector<RRRSet> sets = random_sets(700, 5);
  CompressedRRRCollection compressed;
  for (const RRRSet &set : sets) compressed.append(set);

  // Walk the arena decoding every other record and skipping the rest: the
  // skip path must land each subsequent record exactly where decode does.
  auto cursor = compressed.cursor();
  std::vector<vertex_t> decoded;
  for (std::size_t j = 0; j < sets.size(); ++j) {
    ASSERT_FALSE(cursor.at_end());
    const std::uint32_t count = cursor.next_header();
    ASSERT_EQ(count, sets[j].size());
    if (j % 2 == 0) {
      cursor.decode_members(count, decoded);
      EXPECT_EQ(decoded, sets[j]) << "set " << j;
    } else {
      cursor.skip_members(count);
    }
  }
  EXPECT_TRUE(cursor.at_end());
}

TEST(CompressedRRR, TruncatedVarintIsDiagnosedNotReadPastTheArena) {
  // Regression: a flipped continuation bit on the final byte of a record
  // used to march the cursor past the end of the payload (an out-of-bounds
  // read); the decoder must bound-check every byte and throw instead.
  CompressedRRRCollection compressed;
  const RRRSet set = {5};
  compressed.append(set);
  // Payload is [0x01 0x05] (count, first member); setting bit 7 of the last
  // byte turns the member varint into a continuation that never terminates.
  compressed.flip_payload_bit(15);

  std::vector<vertex_t> decoded;
  try {
    compressed.decode_set(0, decoded);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error &error) {
    EXPECT_NE(std::string(error.what()).find("truncated or corrupt"),
              std::string::npos)
        << error.what();
  }

  // The skip path (retired sets) takes the same guard.
  auto cursor = compressed.cursor();
  const std::uint32_t count = cursor.next_header();
  ASSERT_EQ(count, 1u);
  EXPECT_THROW(cursor.skip_members(count), std::runtime_error);
}

TEST(CompressedRRR, HeaderAboveUint32MaxIsDiagnosedNotTruncated) {
  // Payload [0x01][FF FF FF FF 0F] (count 1, member 2^32 - 1).  Setting
  // the header's continuation bit makes it a 6-byte varint far above
  // UINT32_MAX, which next_header used to truncate silently.
  CompressedRRRCollection compressed;
  const RRRSet set = {4294967295u};
  compressed.append(set);
  compressed.flip_payload_bit(7);
  auto cursor = compressed.cursor();
  try {
    (void)cursor.next_header();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error &error) {
    EXPECT_NE(std::string(error.what()).find("truncated or corrupt"),
              std::string::npos)
        << error.what();
  }
  std::vector<vertex_t> decoded;
  EXPECT_THROW(compressed.decode_set(0, decoded), std::runtime_error);
}

TEST(CompressedRRR, BitmapRecordRunningPastThePayloadIsDiagnosed) {
  // n = 1000: bitmap headers start at 1001 and a bitmap is 128 bytes.  The
  // list record {8, 9, 10} is [0x03][0x08][0x01][0x01]; setting the
  // header's continuation bit reads it as 3 + (8 << 7) = 1027, a bitmap
  // header, with only two payload bytes left for its 128.
  CompressedRRRCollection compressed(1000);
  const RRRSet set = {8, 9, 10};
  compressed.append(set);
  compressed.flip_payload_bit(7);
  auto cursor = compressed.cursor();
  try {
    (void)cursor.next_header();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error &error) {
    EXPECT_NE(std::string(error.what()).find("truncated or corrupt"),
              std::string::npos)
        << error.what();
  }
}

TEST(CompressedRRR, DecodeSetPastTheEndThrowsOutOfRange) {
  CompressedRRRCollection compressed;
  std::vector<vertex_t> decoded;
  EXPECT_THROW(compressed.decode_set(0, decoded), std::out_of_range);
  // One past the end of a full block, where block_offsets_ has no entry.
  for (std::size_t j = 0; j < CompressedRRRCollection::kBlockSize; ++j)
    compressed.append(RRRSet{static_cast<vertex_t>(j)});
  EXPECT_THROW(compressed.decode_set(CompressedRRRCollection::kBlockSize,
                                     decoded),
               std::out_of_range);
  compressed.decode_set(CompressedRRRCollection::kBlockSize - 1, decoded);
  EXPECT_EQ(decoded, (RRRSet{255}));
}

TEST(CompressedRRR, BitmapRecordsRoundTripAndNeverOutgrowTheirPlainRecord) {
  // n = 300: W = 10 words, a 40-byte bitmap.  Dense sets encode as
  // bitmaps, sparse ones as delta lists, whatever kind they arrive as.
  constexpr vertex_t n = 300;
  std::vector<RRRSet> sets = random_sets(200, 17, n);
  for (std::size_t j = 0; j < sets.size(); j += 3) {
    RRRSet dense;
    for (vertex_t v = static_cast<vertex_t>(j % 7); v < n; v += 2)
      dense.push_back(v);
    sets[j] = dense;
  }
  RRRCollection plain(n);
  for (const RRRSet &set : sets) plain.add(RRRSet(set));
  CompressedRRRCollection from_lists(n);
  CompressedRRRCollection from_records(n);
  for (std::size_t j = 0; j < sets.size(); ++j) {
    from_lists.append(sets[j]);
    from_records.append(plain.record(j));

    // Compression never enlarges a set: a one-set arena's record is no
    // larger than the set's plain record (vector header + capacity).
    CompressedRRRCollection one(n);
    one.append(plain.record(j));
    one.shrink_to_fit();
    const std::size_t record_bytes =
        one.footprint_bytes() - sizeof(std::uint64_t); // its block offset
    EXPECT_LE(record_bytes, sizeof(RRRSet) + plain.sets()[j].capacity() *
                                                 sizeof(vertex_t))
        << "set " << j;
  }
  EXPECT_EQ(from_lists.total_associations(), plain.total_associations());
  EXPECT_EQ(from_records.total_associations(), plain.total_associations());

  std::vector<vertex_t> decoded;
  std::vector<vertex_t> scratch;
  std::size_t bitmaps = 0;
  auto cursor = from_records.cursor();
  for (std::size_t j = 0; j < sets.size(); ++j) {
    from_lists.decode_set(j, decoded);
    EXPECT_EQ(decoded, sets[j]) << "set " << j;
    from_records.decode_set(j, decoded);
    EXPECT_EQ(decoded, sets[j]) << "set " << j;
    const std::uint32_t count = cursor.next_header();
    EXPECT_EQ(count, sets[j].size()) << "set " << j;
    bitmaps += cursor.at_bitmap() ? 1 : 0;
    const RRRRecord record = cursor.read_record(count, scratch);
    EXPECT_EQ(record.is_bitmap(), cursor.at_bitmap());
    RRRSet walked;
    record.for_each_member([&walked](vertex_t v) { walked.push_back(v); });
    EXPECT_EQ(walked, sets[j]) << "set " << j;
  }
  EXPECT_TRUE(cursor.at_end());
  EXPECT_EQ(bitmaps, (sets.size() + 2) / 3);
}

TEST(CompressedRRR, EmptyCollectionHasEmptyCursor) {
  CompressedRRRCollection compressed;
  EXPECT_EQ(compressed.size(), 0u);
  EXPECT_TRUE(compressed.cursor().at_end());
}

TEST(CompressedRRR, CompressesClusteredSetsAtLeastThreefold) {
  // RRR sets are BFS territories: their members cluster in id space, so
  // deltas are small and LEB128 packs them into 1-2 bytes against the 4+
  // bytes per member the plain representation holds (plus vector headers).
  // This is the representation claim behind the >= 3x acceptance criterion.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<vertex_t> base_dist(0, 100000);
  std::uniform_int_distribution<vertex_t> delta_dist(1, 120);
  RRRCollection plain;
  CompressedRRRCollection compressed;
  for (int i = 0; i < 2000; ++i) {
    RRRSet set;
    vertex_t v = base_dist(rng);
    for (int j = 0; j < 50; ++j) {
      set.push_back(v);
      v += delta_dist(rng);
    }
    compressed.append(set);
    plain.add(std::move(set));
  }
  compressed.shrink_to_fit();
  EXPECT_GE(plain.footprint_bytes(), 3 * compressed.footprint_bytes())
      << "plain " << plain.footprint_bytes() << " vs compressed "
      << compressed.footprint_bytes();
}

// --- MemoryTracker: budget and sticky oom faults ------------------------------

/// Restores the process-wide tracker to the unlimited, fault-free state
/// whatever the test did (the tracker is shared with every other test in
/// this binary).
struct ScopedTrackerReset {
  ~ScopedTrackerReset() {
    MemoryTracker::instance().set_budget(0);
    MemoryTracker::instance().clear_oom_faults();
  }
};

TEST(MemoryBudget, TryReserveEnforcesTheBudgetBoundary) {
  ScopedTrackerReset guard;
  MemoryTracker &tracker = MemoryTracker::instance();
  const std::size_t base = tracker.reserved_bytes();
  tracker.set_budget(base + 1000);

  EXPECT_TRUE(tracker.try_reserve(600, "test"));
  EXPECT_TRUE(tracker.try_reserve(400, "test")); // exactly at the budget
  EXPECT_FALSE(tracker.try_reserve(1, "test"));  // one byte over
  tracker.release(400);
  EXPECT_TRUE(tracker.try_reserve(400, "test"));
  tracker.release(1000);
  EXPECT_EQ(tracker.reserved_bytes(), base);
}

TEST(MemoryBudget, ZeroBudgetMeansUnlimited) {
  ScopedTrackerReset guard;
  MemoryTracker &tracker = MemoryTracker::instance();
  tracker.set_budget(0);
  EXPECT_TRUE(tracker.try_reserve(std::size_t{1} << 40, "test"));
  tracker.release(std::size_t{1} << 40);
}

TEST(MemoryBudget, OomFaultIsStickyFromItsSiteOn) {
  ScopedTrackerReset guard;
  MemoryTracker &tracker = MemoryTracker::instance();
  tracker.set_budget(0); // unlimited: only the fault can refuse
  tracker.install_oom_faults({{0, 2}});

  EXPECT_TRUE(tracker.try_reserve(10, "test"));  // site 0
  EXPECT_TRUE(tracker.try_reserve(10, "test"));  // site 1
  EXPECT_FALSE(tracker.try_reserve(10, "test")); // site 2: planned failure
  EXPECT_FALSE(tracker.try_reserve(10, "test")); // sticky ever after
  EXPECT_FALSE(tracker.try_reserve(0, "test"));
  tracker.release(20);

  // Clearing the plan resets both the site counter and the sticky state.
  tracker.clear_oom_faults();
  EXPECT_TRUE(tracker.try_reserve(10, "test"));
  tracker.release(10);
}

TEST(MemoryBudget, OomFaultOnAnotherRankDoesNotFireHere) {
  ScopedTrackerReset guard;
  MemoryTracker &tracker = MemoryTracker::instance();
  tracker.install_oom_faults({{3, 0}}); // this thread is trace rank 0
  EXPECT_TRUE(tracker.try_reserve(10, "test"));
  EXPECT_TRUE(tracker.try_reserve(10, "test"));
  tracker.release(20);
}

TEST(MemoryBudget, ExceptionNamesConsumerAndSizes) {
  const MemoryBudgetExceeded error("imm_test.rrr", 1024, 4096, 2048);
  EXPECT_EQ(error.consumer(), "imm_test.rrr");
  EXPECT_EQ(error.requested_bytes(), 1024u);
  const std::string what = error.what();
  EXPECT_NE(what.find("imm_test.rrr"), std::string::npos) << what;
}

// --- oom fault-plan parsing ---------------------------------------------------

TEST(MemoryBudget, OomFaultsFromPlanFiltersKinds) {
  const auto faults =
      detail::oom_faults_from_plan("rank=1,site=4,kind=oom;"
                                   "rank=0,site=2,kind=crash;"
                                   "rank=2,site=7,kind=oom");
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0].rank, 1);
  EXPECT_EQ(faults[0].site, 4u);
  EXPECT_EQ(faults[1].rank, 2);
  EXPECT_EQ(faults[1].site, 7u);
}

// --- certified epsilon ---------------------------------------------------------

TEST(CertifiedEpsilon, FullSampleCountCertifiesTheRequestedAccuracy) {
  // With achieved == final theta the run owes nothing: the certified value
  // is exactly the requested epsilon.
  const double lb = 40.0;
  ThetaSchedule schedule(10000, 10, 0.5);
  const std::uint64_t full = schedule.final_theta(lb);
  EXPECT_DOUBLE_EQ(certified_epsilon(10000, 10, 0.5, 1.0, lb, full), 0.5);
  // More samples than needed still certify (clamped below at epsilon).
  EXPECT_DOUBLE_EQ(certified_epsilon(10000, 10, 0.5, 1.0, lb, 4 * full), 0.5);
}

TEST(CertifiedEpsilon, FewerSamplesCertifyMonotonicallyLooserAccuracy) {
  const double lb = 40.0;
  ThetaSchedule schedule(10000, 10, 0.5);
  const std::uint64_t full = schedule.final_theta(lb);
  double previous = 0.5;
  for (std::uint64_t achieved : {full / 2, full / 4, full / 16}) {
    const double certified =
        certified_epsilon(10000, 10, 0.5, 1.0, lb, achieved);
    EXPECT_GT(certified, previous) << achieved;
    previous = certified;
  }
  // A quarter of the samples certify about twice the epsilon (lambda* ~
  // 1/eps^2), up to the final-theta ceil.
  const double half_accuracy =
      certified_epsilon(10000, 10, 0.5, 1.0, lb, full / 4);
  EXPECT_NEAR(half_accuracy, 1.0, 0.05);
}

TEST(CertifiedEpsilon, ZeroSamplesCertifyNothing) {
  EXPECT_DOUBLE_EQ(certified_epsilon(10000, 10, 0.5, 1.0, 40.0, 0),
                   ThetaSchedule::kMaxCertifiedEpsilon);
}

// --- RRRStore: the degradation ladder -----------------------------------------

/// Deterministic generator: set j is {j % 97, j % 97 + 1, ..., j % 97 + 19}
/// — 20 members, delta-friendly, identical on every call so ladder
/// traversals are reproducible.
void fill_window(RRRCollection &scratch, std::uint64_t first,
                 std::uint64_t count) {
  for (std::uint64_t j = first; j < first + count; ++j) {
    RRRSet set(20);
    for (std::size_t i = 0; i < set.size(); ++i)
      set[i] = static_cast<vertex_t>(j % 97 + i);
    scratch.add(std::move(set));
  }
}

TEST(RRRStore, UngovernedlessBudgetAdmitsPlain) {
  ScopedTrackerReset guard;
  detail::ScopedBudget budget(0, CompressMode::Auto, {});
  EXPECT_FALSE(budget.governed());
}

TEST(RRRStore, AlwaysModeIsGovernedAndStartsCompressed) {
  ScopedTrackerReset guard;
  detail::ScopedBudget budget(0, CompressMode::Always, {});
  EXPECT_TRUE(budget.governed());

  detail::RRRStore::Policy policy;
  policy.compress = CompressMode::Always;
  detail::RRRStore store(policy);
  EXPECT_TRUE(store.using_compressed());
  store.extend_window(0, 500, fill_window);
  EXPECT_EQ(store.size(), 500u);
  EXPECT_EQ(store.total_associations(), 500u * 20);
}

TEST(RRRStore, SwitchesToCompressedUnderBudgetPressure) {
  ScopedTrackerReset guard;
  // Plain footprint of 4000 20-member sets is ~4000 * (24B header + 80B
  // payload + slack) > 400 KB; compressed it is well under 150 KB.  The
  // budget sits between the two, so the store must cross rung 1 and finish.
  detail::ScopedBudget budget(200 * 1024, CompressMode::Auto, {});
  ASSERT_TRUE(budget.governed());

  detail::RRRStore::Policy policy;
  policy.budget_bytes = 200 * 1024;
  policy.chunk = 512;
  detail::RRRStore store(policy);
  EXPECT_FALSE(store.using_compressed());
  store.extend_window(0, 4000, fill_window);
  EXPECT_TRUE(store.using_compressed());
  EXPECT_EQ(store.size(), 4000u);
  EXPECT_LE(store.footprint_bytes(), 200u * 1024);
}

TEST(RRRStore, CompressedSelectionMatchesPlainSelection) {
  ScopedTrackerReset guard;
  detail::ScopedBudget budget(0, CompressMode::Always, {});

  detail::RRRStore::Policy always;
  always.compress = CompressMode::Always;
  detail::RRRStore compressed_store(always);
  compressed_store.extend_window(0, 2000, fill_window);
  ASSERT_TRUE(compressed_store.using_compressed());

  RRRCollection plain;
  fill_window(plain, 0, 2000);
  const SelectionResult from_plain = select_seeds(120, 5, plain.sets());
  const SelectionResult from_store = compressed_store.select(120, 5, 1);
  EXPECT_EQ(from_store.seeds, from_plain.seeds);
  EXPECT_EQ(from_store.covered_samples, from_plain.covered_samples);
}

TEST(RRRStore, SoftRefusalRaisesBudgetEarlyStopWithAchievedCount) {
  ScopedTrackerReset guard;
  // A budget below even the compressed footprint: the ladder runs out and
  // the shared-memory policy raises the early-stop signal, reporting how
  // many samples were admitted before the wall.
  detail::ScopedBudget budget(2 * 1024, CompressMode::Auto, {});

  detail::RRRStore::Policy policy;
  policy.budget_bytes = 2 * 1024;
  policy.chunk = 64;
  detail::RRRStore store(policy);
  try {
    store.extend_window(0, 100000, fill_window);
    FAIL() << "an impossible budget was not refused";
  } catch (const detail::BudgetEarlyStop &stop) {
    EXPECT_EQ(stop.achieved, store.size());
    EXPECT_LT(stop.achieved, 100000u);
  }
}

TEST(RRRStore, HardRefusalThrowsDiagnosticNamingTheConsumer) {
  ScopedTrackerReset guard;
  detail::ScopedBudget budget(2 * 1024, CompressMode::Auto, {});

  detail::RRRStore::Policy policy;
  policy.budget_bytes = 2 * 1024;
  policy.chunk = 64;
  policy.hard_refusal = true;
  policy.consumer = "test_driver.rrr";
  detail::RRRStore store(policy);
  try {
    store.extend_window(0, 100000, fill_window);
    FAIL() << "an impossible budget was not refused";
  } catch (const MemoryBudgetExceeded &error) {
    EXPECT_EQ(error.consumer(), "test_driver.rrr");
  }
}

TEST(RRRStore, CompressOffSkipsTheCompressionRung) {
  ScopedTrackerReset guard;
  detail::ScopedBudget budget(2 * 1024, CompressMode::Off, {});

  detail::RRRStore::Policy policy;
  policy.budget_bytes = 2 * 1024;
  policy.compress = CompressMode::Off;
  policy.chunk = 64;
  detail::RRRStore store(policy);
  EXPECT_THROW(store.extend_window(0, 100000, fill_window),
               detail::BudgetEarlyStop);
  EXPECT_FALSE(store.using_compressed());
}

TEST(RRRStore, OomFaultAloneForcesGovernanceAndTripsTheLadder) {
  ScopedTrackerReset guard;
  // No budget at all: the planned fault is the only source of refusal, and
  // its sticky semantics march the ladder to the early stop.
  detail::ScopedBudget budget(0, CompressMode::Auto, {{0, 1}});
  ASSERT_TRUE(budget.governed());

  detail::RRRStore::Policy policy;
  policy.chunk = 64;
  detail::RRRStore store(policy);
  EXPECT_THROW(store.extend_window(0, 100000, fill_window),
               detail::BudgetEarlyStop);
  EXPECT_GT(store.size(), 0u); // site 0 succeeded before the fault
  EXPECT_LT(store.size(), 100000u);
}

// --- end-to-end drivers under the governor ------------------------------------

CsrGraph driver_graph() {
  CsrGraph graph(barabasi_albert(500, 3, 21));
  assign_uniform_weights(graph, 22);
  return graph;
}

ImmOptions driver_options() {
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 2019;
  options.mem_budget = 0;
  options.rrr_compress = CompressMode::Auto;
  options.fault_plan.clear();
  return options;
}

TEST(GovernedDrivers, GenerousBudgetMatchesTheUngovernedRun) {
  // A budget the run fits under must not perturb anything: same samples,
  // same seeds, not degraded — the governed store is a pure pass-through.
  CsrGraph graph = driver_graph();
  ImmOptions options = driver_options();
  const ImmResult plain = imm_sequential(graph, options);
  ASSERT_FALSE(plain.degraded);

  options.mem_budget = std::size_t{1} << 30;
  for (const ImmResult &governed :
       {imm_sequential(graph, options), imm_multithreaded(graph, options)}) {
    EXPECT_EQ(governed.seeds, plain.seeds);
    EXPECT_EQ(governed.theta, plain.theta);
    EXPECT_EQ(governed.num_samples, plain.num_samples);
    EXPECT_FALSE(governed.degraded);
    EXPECT_DOUBLE_EQ(governed.epsilon_achieved, options.epsilon);
  }
}

TEST(GovernedDrivers, CompressionBudgetMatchesSeedsAtLowerFootprint) {
  // A budget between the plain and compressed footprints: the run must
  // finish complete (every sample admitted, not degraded) with identical
  // seeds, having crossed to the compressed representation.  Most IC sets
  // here are bitmap records, which compression keeps as they are, so the
  // two peaks are measured (~61 KB plain, ~44 KB forced compression) and
  // the budget sits midway, not at a fixed fraction of the plain peak.
  CsrGraph graph = driver_graph();
  ImmOptions options = driver_options();
  const ImmResult plain = imm_sequential(graph, options);
  ImmOptions forced = options;
  forced.rrr_compress = CompressMode::Always;
  const ImmResult compressed = imm_sequential(graph, forced);
  ASSERT_LT(compressed.rrr_peak_bytes, plain.rrr_peak_bytes);

  ImmOptions squeezed = options;
  squeezed.mem_budget = (compressed.rrr_peak_bytes + plain.rrr_peak_bytes) / 2;
  const ImmResult governed = imm_sequential(graph, squeezed);
  EXPECT_FALSE(governed.degraded);
  EXPECT_EQ(governed.seeds, plain.seeds);
  EXPECT_EQ(governed.theta, plain.theta);
  EXPECT_EQ(governed.num_samples, plain.num_samples);
  EXPECT_LT(governed.rrr_peak_bytes, plain.rrr_peak_bytes);
}

TEST(GovernedDrivers, PeakCoversThePlainSetsHeldBeforeAMidExtendSwitch) {
  // A budget just under the unbudgeted peak: the store admits plain chunks
  // until one of the last extend no longer fits, compresses, and finishes.
  // The plain sets it held just before the switch outweigh every footprint
  // seen at a round boundary, so the reported peak must exceed all of them
  // — reading the footprint only after each extend under-reports it.
  // Footprints do not depend on the team size, so the run uses a team of
  // one: on four threads Alg. 4 over 20000 vertices takes minutes under
  // ThreadSanitizer.
  CsrGraph graph(barabasi_albert(20000, 3, 21));
  assign_uniform_weights(graph, 22);
  renormalize_linear_threshold(graph);
  ImmOptions options = driver_options();
  options.model = DiffusionModel::LinearThreshold;
  options.epsilon = 0.2;
  options.k = 20;
  options.num_threads = 1;
  const ImmResult plain = imm_multithreaded(graph, options);

  options.mem_budget = plain.rrr_peak_bytes / 10 * 9;
  metrics::Counter &switches =
      metrics::Registry::instance().counter("mem.budget.compress_switches");
  metrics::set_enabled(true);
  const std::uint64_t switches_before = switches.value();
  const ImmResult governed = imm_multithreaded(graph, options);
  metrics::set_enabled(false);

  ASSERT_EQ(switches.value(), switches_before + 1);
  EXPECT_FALSE(governed.degraded);
  EXPECT_EQ(governed.seeds, plain.seeds);
  EXPECT_EQ(governed.num_samples, plain.num_samples);
  ASSERT_FALSE(governed.report.rounds.empty());
  std::uint64_t boundary_peak = 0;
  for (const metrics::RoundEntry &entry : governed.report.rounds)
    boundary_peak = std::max(boundary_peak, entry.rrr_bytes);
  EXPECT_GT(governed.rrr_peak_bytes, boundary_peak);
  EXPECT_LT(governed.rrr_peak_bytes, plain.rrr_peak_bytes);
}

TEST(GovernedDrivers, ImpossibleBudgetDegradesWithCertifiedEpsilon) {
  CsrGraph graph = driver_graph();
  ImmOptions options = driver_options();
  options.mem_budget = 16 * 1024;
  const ImmResult degraded = imm_sequential(graph, options);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_GT(degraded.epsilon_achieved, options.epsilon);
  // Still a valid answer: k distinct seeds from the samples that fit.
  ASSERT_EQ(degraded.seeds.size(), options.k);
  std::set<vertex_t> unique(degraded.seeds.begin(), degraded.seeds.end());
  EXPECT_EQ(unique.size(), degraded.seeds.size());

  // The same squeeze is deterministic: rerunning reproduces both the seed
  // set and the certified accuracy bit for bit.
  const ImmResult again = imm_sequential(graph, options);
  EXPECT_EQ(again.seeds, degraded.seeds);
  EXPECT_EQ(again.num_samples, degraded.num_samples);
  EXPECT_DOUBLE_EQ(again.epsilon_achieved, degraded.epsilon_achieved);

  // And the multithreaded driver degrades to the same answer.
  ImmOptions mt = options;
  mt.num_threads = 3;
  const ImmResult threaded = imm_multithreaded(graph, mt);
  EXPECT_EQ(threaded.seeds, degraded.seeds);
  EXPECT_DOUBLE_EQ(threaded.epsilon_achieved, degraded.epsilon_achieved);
}

TEST(GovernedDrivers, LtFusedWindowChargesItsEdgeTableOnce) {
  // A governed LT window reserves one shared edge table (the 8-byte row
  // prefix per edge) plus its threads' sampler scratch.  A dense graph
  // makes the table dwarf the RRR store; the budget fits the store, one
  // table and the scratch but not a table per thread, so the fused engine
  // must run — no refusal anywhere — and give the ungoverned run's seeds.
  CsrGraph graph(complete_graph(200));
  assign_uniform_weights(graph, 23);
  renormalize_linear_threshold(graph);
  ImmOptions options = driver_options();
  options.model = DiffusionModel::LinearThreshold;
  options.sampler = SamplerEngine::Fused;
  options.num_threads = 4;
  const ImmResult plain = imm_multithreaded(graph, options);

  const auto lt = DiffusionModel::LinearThreshold;
  const std::size_t scratch = FusedSampler::scratch_bytes(graph);
  const std::size_t table = FusedEdgeTable::bytes(graph, lt);
  ASSERT_EQ(table, 8 * (graph.num_edges() + graph.num_vertices()));
  ASSERT_EQ(FusedSampler::window_bytes(graph, lt, 4), table + 4 * scratch);
  options.mem_budget = 4 * plain.rrr_peak_bytes + table + 4 * scratch;
  ASSERT_GT(4 * (scratch + table), options.mem_budget)
      << "the budget must refuse a window that charges a table per thread";

  metrics::Registry &registry = metrics::Registry::instance();
  metrics::Counter &refusals = registry.counter("mem.budget.refusals");
  metrics::Counter &fused_words = registry.counter("sampler.fused.words");
  metrics::set_enabled(true);
  const std::uint64_t refusals_before = refusals.value();
  const std::uint64_t words_before = fused_words.value();
  const ImmResult governed = imm_multithreaded(graph, options);
  metrics::set_enabled(false);

  EXPECT_EQ(refusals.value(), refusals_before);
  EXPECT_GT(fused_words.value(), words_before);
  EXPECT_FALSE(governed.degraded);
  EXPECT_EQ(governed.seeds, plain.seeds);
  EXPECT_EQ(governed.theta, plain.theta);
  EXPECT_EQ(governed.num_samples, plain.num_samples);
}

TEST(GovernedDrivers, ThrowingWindowReturnsItsReservation) {
  // The fused edge table rejects a weight above 1 from inside an admission
  // window, after the store reserved the window's estimate and the
  // fused-lane rung its table.  The reservations are process-wide, so
  // leaking them would start every later solve closer to refusal: each
  // driver must hand back exactly what it reserved as the throw unwinds.
  const CsrGraph graph(
      EdgeList{4, {{0, 1, 0.5f}, {1, 2, 0.5f}, {3, 2, 2.0f}}});
  ImmOptions options = driver_options();
  options.k = 1;
  options.sampler = SamplerEngine::Fused;
  ImmOptions threaded = options;
  threaded.num_threads = 2;
  // Ungoverned, the distributed driver builds its one shared table before
  // any window; under a budget every window builds its own.
  ImmOptions distributed = options;
  distributed.num_ranks = 2;
  distributed.mem_budget = std::size_t{1} << 30;

  const MemoryTracker &tracker = MemoryTracker::instance();
  const std::size_t before = tracker.reserved_bytes();
  EXPECT_THROW((void)imm_sequential(graph, options), std::invalid_argument);
  EXPECT_EQ(tracker.reserved_bytes(), before) << "imm_sequential";
  EXPECT_THROW((void)imm_multithreaded(graph, threaded),
               std::invalid_argument);
  EXPECT_EQ(tracker.reserved_bytes(), before) << "imm_multithreaded";
  EXPECT_THROW((void)imm_distributed(graph, distributed),
               std::invalid_argument);
  EXPECT_EQ(tracker.reserved_bytes(), before) << "imm_distributed";
}

TEST(GovernedDrivers, DistributedRefusesAnImpossibleBudgetWithDiagnostic) {
  CsrGraph graph = driver_graph();
  ImmOptions options = driver_options();
  options.num_ranks = 2;
  options.mem_budget = 16 * 1024;
  try {
    (void)imm_distributed(graph, options);
    FAIL() << "an impossible budget was not refused";
  } catch (const std::exception &error) {
    EXPECT_NE(std::string(error.what()).find("memory budget exceeded"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("imm_distributed.rrr"),
              std::string::npos)
        << error.what();
  }
}

} // namespace
} // namespace ripples
