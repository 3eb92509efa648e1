// Tests for the durable checkpoint/restart stack (DESIGN.md §9): the
// CRC-guarded snapshot format (every damage mode refused with a *distinct*
// diagnosis), the CheckpointManager's atomic write-rename + retention, and
// the end-to-end guarantee that a run killed at ANY martingale round and
// resumed with checkpoint::Options::resume produces byte-identical seeds,
// theta, and coverage to the uninterrupted run — across driver x ranks x
// diffusion model x engine x threads per rank, and composed with fault
// healing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"
#include "mpsim/fault.hpp"
#include "support/checkpoint.hpp"
#include "support/metrics.hpp"
#include "support/steal_schedule.hpp"

#include "fault_probe.hpp"
#include "scalar_reference.hpp"

namespace ripples {
namespace {

namespace fs = std::filesystem;
using checkpoint::CheckpointError;
using checkpoint::CheckpointManager;
using checkpoint::LoadError;
using checkpoint::RunFingerprint;
using checkpoint::Snapshot;

RunFingerprint sample_fingerprint() {
  RunFingerprint fp;
  fp.driver = "imm_distributed";
  fp.graph_hash = 0xDEADBEEFCAFEF00Dull;
  fp.graph_vertices = 400;
  fp.graph_edges = 1191;
  fp.seed = 2019;
  fp.epsilon = 0.5;
  fp.l = 1.0;
  fp.k = 8;
  fp.model = 0;
  fp.rng_mode = 1;
  fp.world_size = 4;
  return fp;
}

Snapshot sample_snapshot() {
  Snapshot snapshot;
  snapshot.fingerprint = sample_fingerprint();
  snapshot.next_round = 5;
  snapshot.accepted = false;
  snapshot.lower_bound = 123.4375; // exact in binary
  snapshot.last_coverage = 0.15625;
  snapshot.estimation_iterations = 4;
  snapshot.num_samples = 3200;
  snapshot.extend_targets = {400, 800, 1600, 3200};
  snapshot.stream_counts = {800, 800, 800, 800};
  return snapshot;
}

// --- snapshot format ---------------------------------------------------------

TEST(CheckpointFormat, SerializeRoundTripsBitExactly) {
  Snapshot original = sample_snapshot();
  // A value with a non-terminating decimal expansion: only bit-pattern
  // serialization round-trips it, which is what seed equivalence needs.
  original.lower_bound = 1.0 / 3.0;
  std::vector<std::uint8_t> bytes = original.serialize();
  Snapshot restored = Snapshot::deserialize(bytes);
  EXPECT_EQ(restored, original);
}

TEST(CheckpointFormat, RejectsBadMagicDistinctly) {
  std::vector<std::uint8_t> bytes = sample_snapshot().serialize();
  bytes[0] ^= 0xFF;
  try {
    (void)Snapshot::deserialize(bytes);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError &error) {
    EXPECT_EQ(error.kind(), LoadError::BadMagic);
    EXPECT_NE(std::string(error.what()).find("magic"), std::string::npos);
  }
}

TEST(CheckpointFormat, RejectsVersionSkewDistinctly) {
  std::vector<std::uint8_t> bytes = sample_snapshot().serialize();
  bytes[4] = 99; // version field follows the 4-byte magic
  try {
    (void)Snapshot::deserialize(bytes);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError &error) {
    EXPECT_EQ(error.kind(), LoadError::VersionSkew);
    EXPECT_NE(std::string(error.what()).find("99"), std::string::npos);
  }
}

TEST(CheckpointFormat, RejectsTruncationDistinctly) {
  std::vector<std::uint8_t> bytes = sample_snapshot().serialize();
  // Cut mid-payload (torn write) and mid-header (interrupted even earlier).
  for (std::size_t keep : {bytes.size() - 9, std::size_t{10}, std::size_t{0}}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    try {
      (void)Snapshot::deserialize(cut);
      FAIL() << "expected CheckpointError at " << keep << " bytes";
    } catch (const CheckpointError &error) {
      EXPECT_EQ(error.kind(), LoadError::Truncated) << keep << " bytes";
    }
  }
}

TEST(CheckpointFormat, RejectsPayloadCorruptionDistinctly) {
  std::vector<std::uint8_t> bytes = sample_snapshot().serialize();
  constexpr std::size_t kHeaderBytes = 20;
  // One flipped bit anywhere in the payload must trip the CRC.
  for (std::size_t at : {kHeaderBytes, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> damaged = bytes;
    damaged[at] ^= 0x10;
    try {
      (void)Snapshot::deserialize(damaged);
      FAIL() << "expected CheckpointError for flip at " << at;
    } catch (const CheckpointError &error) {
      EXPECT_EQ(error.kind(), LoadError::CrcMismatch) << "flip at " << at;
    }
  }
}

TEST(CheckpointFormat, RetiredExchangeFieldsAreWrittenAsZeroAndIgnored) {
  // The fingerprint's selection-exchange byte and top-m word stay in the v1
  // layout, after the driver string, four u64s, two f64s, k, model and
  // rng_mode.  Today's snapshots write zeros there; one written by a sparse
  // run (1, m = 16) resumes all the same.
  const Snapshot original = sample_snapshot();
  std::vector<std::uint8_t> bytes = original.serialize();
  constexpr std::size_t kHeaderBytes = 20;
  const std::size_t at = kHeaderBytes + 8 + original.fingerprint.driver.size() +
                         4 * 8 + 2 * 8 + 4 + 1 + 1;
  for (std::size_t i = at; i < at + 5; ++i) EXPECT_EQ(bytes[i], 0) << i;
  bytes[at] = 1;
  bytes[at + 1] = 16;
  const std::uint32_t crc = checkpoint::crc32(
      std::span<const std::uint8_t>(bytes).subspan(kHeaderBytes));
  for (int i = 0; i < 4; ++i)
    bytes[16 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  EXPECT_EQ(Snapshot::deserialize(bytes), original);
}

TEST(CheckpointFormat, CrcMatchesTheKnownIeeeVector) {
  // The classic check vector: crc32("123456789") == 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(checkpoint::crc32(digits), 0xCBF43926u);
}

TEST(CheckpointFingerprint, MismatchIsRefusedNamingEveryDifferingField) {
  Snapshot snapshot = sample_snapshot();
  RunFingerprint run = sample_fingerprint();
  run.k = 16;
  run.epsilon = 0.3;
  try {
    checkpoint::require_matching_fingerprint(snapshot, run);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError &error) {
    EXPECT_EQ(error.kind(), LoadError::FingerprintMismatch);
    const std::string what = error.what();
    EXPECT_NE(what.find("k ("), std::string::npos) << what;
    EXPECT_NE(what.find("epsilon ("), std::string::npos) << what;
    EXPECT_EQ(what.find("seed ("), std::string::npos) << what;
  }
}

TEST(CheckpointFingerprint, MatchingFingerprintIsAccepted) {
  EXPECT_NO_THROW(checkpoint::require_matching_fingerprint(
      sample_snapshot(), sample_fingerprint()));
}

// --- manager: atomic writes, retention, damage recovery ----------------------

class CheckpointDir : public ::testing::Test {
protected:
  void SetUp() override {
    directory_ = fs::temp_directory_path() /
                 ("ripples_ckpt_test_" + std::to_string(::getpid()) + "_" +
                  ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(directory_);
    fs::create_directories(directory_);
  }
  void TearDown() override { fs::remove_all(directory_); }

  [[nodiscard]] std::string dir() const { return directory_.string(); }

  std::filesystem::path directory_;
};

TEST_F(CheckpointDir, WritesPrunesAndNeverLeavesTempFiles) {
  CheckpointManager manager(dir(), /*every=*/1, /*keep_last=*/3);
  Snapshot snapshot = sample_snapshot();
  for (std::uint32_t round = 1; round <= 7; ++round) {
    snapshot.next_round = round;
    EXPECT_TRUE(manager.observe(snapshot));
  }
  std::vector<std::string> files = manager.snapshot_files();
  ASSERT_EQ(files.size(), 3u);
  // Newest three survive, and each loads back to the round it captured.
  std::uint32_t expected_round = 5;
  for (const std::string &file : files)
    EXPECT_EQ(CheckpointManager::load_file(file).next_round, expected_round++);
  for (const auto &entry : fs::directory_iterator(directory_))
    EXPECT_EQ(entry.path().extension(), ".rpck") << entry.path();
}

TEST_F(CheckpointDir, EveryThinsBoundariesButForceAlwaysWrites) {
  CheckpointManager manager(dir(), /*every=*/3, /*keep_last=*/10);
  Snapshot snapshot = sample_snapshot();
  int written = 0;
  for (std::uint32_t round = 1; round <= 6; ++round) {
    snapshot.next_round = round;
    written += manager.observe(snapshot) ? 1 : 0;
  }
  EXPECT_EQ(written, 2); // boundaries 3 and 6
  snapshot.accepted = true;
  EXPECT_TRUE(manager.observe(snapshot, /*force=*/true));
  EXPECT_EQ(manager.snapshot_files().size(), 3u);
}

TEST_F(CheckpointDir, FlushPendingWritesTheThinnedBoundary) {
  CheckpointManager manager(dir(), /*every=*/100, /*keep_last=*/10);
  Snapshot snapshot = sample_snapshot();
  EXPECT_FALSE(manager.observe(snapshot)); // thinned away
  ASSERT_TRUE(manager.flush_pending());    // graceful-shutdown path
  ASSERT_EQ(manager.snapshot_files().size(), 1u);
  EXPECT_EQ(CheckpointManager::load_file(manager.snapshot_files()[0]),
            snapshot);
  // A second flush with nothing new pending is a clean no-op.
  EXPECT_TRUE(manager.flush_pending());
  EXPECT_EQ(manager.snapshot_files().size(), 1u);
}

TEST_F(CheckpointDir, LoadLatestFallsBackPastADamagedNewestSnapshot) {
  CheckpointManager manager(dir(), 1, 10);
  Snapshot older = sample_snapshot();
  older.next_round = 3;
  manager.write_now(older);
  Snapshot newer = sample_snapshot();
  newer.next_round = 4;
  manager.write_now(newer);

  // Corrupt the newest file's payload (simulated bit rot).
  std::vector<std::string> files = manager.snapshot_files();
  ASSERT_EQ(files.size(), 2u);
  {
    std::fstream damage(files.back(),
                        std::ios::binary | std::ios::in | std::ios::out);
    damage.seekp(-1, std::ios::end);
    damage.put('\xA5');
  }

  std::string diagnosis;
  std::optional<Snapshot> loaded = manager.load_latest(&diagnosis);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->next_round, 3u);
  EXPECT_NE(diagnosis.find("crc-mismatch"), std::string::npos) << diagnosis;
}

TEST_F(CheckpointDir, LoadLatestOnAnEmptyDirectoryIsNotAnError) {
  CheckpointManager manager(dir(), 1, 3);
  std::string diagnosis;
  EXPECT_FALSE(manager.load_latest(&diagnosis).has_value());
  EXPECT_TRUE(diagnosis.empty());
}

TEST_F(CheckpointDir, SequenceContinuesPastTheResumedRunsFiles) {
  {
    CheckpointManager first(dir(), 1, 10);
    first.write_now(sample_snapshot());
    first.write_now(sample_snapshot());
  }
  CheckpointManager second(dir(), 1, 10);
  second.write_now(sample_snapshot());
  std::vector<std::string> files = second.snapshot_files();
  ASSERT_EQ(files.size(), 3u);
  // New snapshots sort strictly after the run they resumed from.
  EXPECT_NE(files[2].find("ckpt-00000002"), std::string::npos) << files[2];
}

TEST_F(CheckpointDir, ForeignFilesAreIgnoredNotDeleted) {
  { std::ofstream(dir() + "/notes.txt") << "operator scribbles"; }
  CheckpointManager manager(dir(), 1, 1);
  manager.write_now(sample_snapshot());
  manager.write_now(sample_snapshot());
  EXPECT_EQ(manager.snapshot_files().size(), 1u);
  EXPECT_TRUE(fs::exists(dir() + "/notes.txt"));
}

// --- kill/resume equivalence -------------------------------------------------

CsrGraph checkpoint_graph(
    DiffusionModel model = DiffusionModel::IndependentCascade) {
  CsrGraph graph(barabasi_albert(300, 3, 7));
  assign_uniform_weights(graph, 13);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  return graph;
}

/// (driver, ranks, diffusion model, engine, threads per rank).
using ResumeCell =
    std::tuple<const char *, int, DiffusionModel, SamplerEngine, unsigned>;

ImmOptions cell_options(const ResumeCell &cell) {
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 6;
  // LT draws one in-neighbor per walk step instead of a coin per arc:
  // short sets and another sampler kernel, under the same snapshot.
  options.model = std::get<2>(cell);
  options.seed = 2019;
  options.num_ranks = std::get<1>(cell);
  // The engine axis must be outcome-invisible: a run checkpointed under
  // one engine and resumed under the same one lands on the same results
  // the scalar engine produces (the fused engine's byte-identity promise
  // composes with mid-run resume).
  options.sampler = std::get<3>(cell);
  // Counter streams key every draw by its global sample index, so a rank's
  // thread team changes who draws a sample, never which sample it is.
  options.num_threads = std::get<4>(cell);
  return options;
}

ImmResult run_cell(const ResumeCell &cell, const CsrGraph &graph,
                   const ImmOptions &options) {
  return std::string(std::get<0>(cell)) == "dist"
             ? imm_distributed(graph, options)
             : imm_distributed_partitioned(graph, options);
}

void expect_identical_outcome(const ImmResult &resumed, const ImmResult &clean,
                              const std::string &context) {
  EXPECT_EQ(resumed.seeds, clean.seeds) << context;
  EXPECT_EQ(resumed.theta, clean.theta) << context;
  EXPECT_EQ(resumed.num_samples, clean.num_samples) << context;
  EXPECT_EQ(resumed.coverage_fraction, clean.coverage_fraction) << context;
}

class CheckpointResume : public ::testing::TestWithParam<ResumeCell> {
protected:
  void SetUp() override {
    directory_ = fs::temp_directory_path() /
                 ("ripples_ckpt_resume_" + std::to_string(::getpid()) + "_" +
                  ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(directory_);
  }
  void TearDown() override { fs::remove_all(directory_); }

  std::filesystem::path directory_;
};

TEST_P(CheckpointResume, ResumeFromAnyRoundReproducesTheUninterruptedRun) {
  const CsrGraph graph = checkpoint_graph(std::get<2>(GetParam()));
  ImmOptions options = cell_options(GetParam());
  const ImmResult clean = run_cell(GetParam(), graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);
  EXPECT_EQ(clean.resumed_from, -1);
  // The distributed driver's uninterrupted run is the scalar reference's
  // answer in either engine, so every resume below lands on it too.  The
  // partitioned driver draws per-(sample, vertex) streams, another
  // experiment.
  if (std::string(std::get<0>(GetParam())) == "dist")
    scalar_reference::expect_matches(
        clean, scalar_reference::solve(graph, options), "uninterrupted run");

  // Checkpointed run, retaining every round boundary.
  options.checkpoint.dir = (directory_ / "full").string();
  options.checkpoint.every = 1;
  options.checkpoint.keep_last = 100;
  const ImmResult checkpointed = run_cell(GetParam(), graph, options);
  expect_identical_outcome(checkpointed, clean, "checkpointing enabled");

  CheckpointManager manager(options.checkpoint.dir, 1, 100);
  std::vector<std::string> files = manager.snapshot_files();
  ASSERT_GE(files.size(), 2u);

  // O(ranks·k + theta-state) footprint: even one u64 per sample would need
  // 8·|R| > 4 KiB here, and real RRR sets are larger still; the actual
  // snapshot is a few hundred bytes of coordinates regardless of |R|.
  ASSERT_GT(clean.num_samples, 500u);
  for (const std::string &file : files)
    EXPECT_LT(fs::file_size(file), 1024u) << file;

  // A process killed at ANY round boundary left exactly one usable newest
  // snapshot; resume from each of them must land on the identical outcome.
  for (const std::string &file : files) {
    const Snapshot snapshot = CheckpointManager::load_file(file);
    ImmOptions resume_options = cell_options(GetParam());
    // Keyed by file name, not round: the acceptance snapshot and the
    // post-final-extend snapshot legitimately share a next_round.
    resume_options.checkpoint.dir =
        (directory_ / fs::path(file).stem()).string();
    resume_options.checkpoint.resume = true;
    fs::create_directories(resume_options.checkpoint.dir);
    fs::copy_file(file, fs::path(resume_options.checkpoint.dir) /
                            fs::path(file).filename());
    const ImmResult resumed = run_cell(GetParam(), graph, resume_options);
    expect_identical_outcome(resumed, clean,
                             "resume from round " +
                                 std::to_string(snapshot.next_round));
    EXPECT_EQ(resumed.resumed_from,
              static_cast<std::int64_t>(snapshot.next_round));
    EXPECT_EQ(resumed.report.resumed_from, resumed.resumed_from);
  }
}

std::string resume_cell_name(
    const ::testing::TestParamInfo<ResumeCell> &info) {
  const auto &[driver, ranks, model, engine, threads] = info.param;
  std::string name = driver;
  // "_dense" names the one selection exchange, the counter allreduce; the
  // IC cells keep the names they had beside the retired sparse protocol.
  name += "_p" + std::to_string(ranks) + "_dense";
  name += model == DiffusionModel::LinearThreshold ? "_lt" : "";
  name += engine == SamplerEngine::Fused ? "_fused" : "";
  if (threads != 1) name += "_t" + std::to_string(threads);
  // "dist-part" contains an invalid character for a test name.
  for (char &c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    DriverRanksExchange, CheckpointResume,
    ::testing::Combine(::testing::Values("dist", "dist-part"),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Values(SamplerEngine::Sequential,
                                         SamplerEngine::Fused),
                       ::testing::Values(1u)),
    resume_cell_name);

// Threaded ranks: the distributed driver samples each rank's windows on a
// team of two threads under OpenMP's dynamic schedule, and a resumed run
// must still land on the uninterrupted outcome.  The partitioned driver
// has no thread team, so it is not swept here.
INSTANTIATE_TEST_SUITE_P(
    ThreadedRanks, CheckpointResume,
    ::testing::Combine(::testing::Values("dist"),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Values(SamplerEngine::Sequential,
                                         SamplerEngine::Fused),
                       ::testing::Values(2u)),
    resume_cell_name);

// --- abnormal death, refusal, and composition with fault healing -------------

class CheckpointKill : public CheckpointDir {};

TEST_F(CheckpointKill, SnapshotsSurviveAnAbruptDeathAndResumeToIdenticalSeeds) {
  // The in-process analogue of SIGKILL: an injected crash without recovery
  // unwinds the whole run mid-martingale.  Whatever snapshots were written
  // before the death must carry a --resume run to the clean outcome.
  const CsrGraph graph = checkpoint_graph();
  ResumeCell cell{"dist", 3, DiffusionModel::IndependentCascade,
                  SamplerEngine::Fused, 1u};
  ImmOptions options = cell_options(cell);
  const ImmResult clean = imm_distributed(graph, options);

  options.checkpoint.dir = dir();
  options.fault_plan = "rank=1,site=9"; // crash, no recovery: run dies
  EXPECT_THROW((void)imm_distributed(graph, options), mpsim::InjectedFault);
  ASSERT_FALSE(CheckpointManager(dir(), 1, 3).snapshot_files().empty())
      << "the killed run left no snapshot to resume from";

  options.fault_plan.clear();
  options.checkpoint.resume = true;
  const ImmResult resumed = imm_distributed(graph, options);
  expect_identical_outcome(resumed, clean, "resume after injected death");
  EXPECT_GE(resumed.resumed_from, 1);
}

TEST_F(CheckpointKill, StealMidRoundKillResumesToIdenticalSeeds) {
  // DESIGN.md §13 composition: kill a run whose ranks sample on 3-thread
  // teams, then resume it under inter-rank stealing.  The killed run keeps
  // stealing off, so its fault sites are the deterministic untimed ones
  // (steal acquires would consume timing-dependent sites) and site 9 lands
  // past the first round boundary.  The checkpoint fingerprint deliberately
  // excludes the steal knobs (they are placement-only), so the snapshot
  // must carry BOTH a forced-steal resume and a 1-thread stealing-off
  // resume to the clean outcome.
  const CsrGraph graph = checkpoint_graph();
  ResumeCell cell{"dist", 3, DiffusionModel::IndependentCascade,
                  SamplerEngine::Fused, 1u};
  ImmOptions options = cell_options(cell);
  const ImmResult clean = imm_distributed(graph, options);

  options.steal = StealMode::Off;
  options.num_threads = 3;
  options.checkpoint.dir = dir();
  options.fault_plan = "rank=1,site=9"; // crash, no recovery: run dies
  EXPECT_THROW((void)imm_distributed(graph, options), mpsim::InjectedFault);
  ASSERT_FALSE(CheckpointManager(dir(), 1, 3).snapshot_files().empty())
      << "the killed threaded run left no snapshot to resume from";

  options.fault_plan.clear();
  options.checkpoint.resume = true;
  {
    steal_schedule::ScopedPlan forced(
        {steal_schedule::Mode::StealEverything, 0});
    options.steal = StealMode::On;
    const ImmResult resumed_on = imm_distributed(graph, options);
    expect_identical_outcome(resumed_on, clean, "resume with stealing on");
    EXPECT_GE(resumed_on.resumed_from, 1);
  }

  options.steal = StealMode::Off;
  options.num_threads = 1;
  const ImmResult resumed_off = imm_distributed(graph, options);
  expect_identical_outcome(resumed_off, clean,
                           "cross-mode resume with stealing off");
}

TEST_F(CheckpointKill, ResumeIntoAnEmptyDirectoryStartsFresh) {
  // Killed before the first boundary: nothing on disk, --resume must fall
  // back to a fresh run, not fail.
  const CsrGraph graph = checkpoint_graph();
  ResumeCell cell{"dist", 2, DiffusionModel::IndependentCascade,
                  SamplerEngine::Sequential, 1u};
  ImmOptions options = cell_options(cell);
  const ImmResult clean = imm_distributed(graph, options);
  options.checkpoint.dir = dir();
  options.checkpoint.resume = true;
  const ImmResult result = imm_distributed(graph, options);
  expect_identical_outcome(result, clean, "resume with empty directory");
  EXPECT_EQ(result.resumed_from, -1);
}

TEST_F(CheckpointKill, ResumeWithoutADirectoryIsRefused) {
  const CsrGraph graph = checkpoint_graph();
  ImmOptions options =
      cell_options({"dist", 2, DiffusionModel::IndependentCascade,
                    SamplerEngine::Sequential, 1u});
  options.checkpoint.resume = true;
  EXPECT_THROW((void)imm_distributed(graph, options), std::runtime_error);
}

TEST_F(CheckpointKill, MismatchedResumeIsRefusedNotSilentlyWrong) {
  const CsrGraph graph = checkpoint_graph();
  ResumeCell cell{"dist", 2, DiffusionModel::IndependentCascade,
                  SamplerEngine::Sequential, 1u};
  ImmOptions options = cell_options(cell);
  options.checkpoint.dir = dir();
  (void)imm_distributed(graph, options);
  options.checkpoint.resume = true;

  auto expect_refused = [&](ImmOptions changed, const CsrGraph &g,
                            const char *what_changed) {
    try {
      (void)imm_distributed(g, changed);
      FAIL() << "resume accepted despite changed " << what_changed;
    } catch (const CheckpointError &error) {
      EXPECT_EQ(error.kind(), LoadError::FingerprintMismatch)
          << what_changed;
      EXPECT_NE(std::string(error.what()).find(what_changed),
                std::string::npos)
          << error.what();
    }
  };

  ImmOptions changed_k = options;
  changed_k.k = options.k + 1;
  expect_refused(changed_k, graph, "k");

  ImmOptions changed_eps = options;
  changed_eps.epsilon = 0.4;
  expect_refused(changed_eps, graph, "epsilon");

  ImmOptions changed_ranks = options;
  changed_ranks.num_ranks = 4;
  expect_refused(changed_ranks, graph, "world_size");

  CsrGraph other_graph(barabasi_albert(300, 3, 8));
  assign_uniform_weights(other_graph, 13);
  expect_refused(options, other_graph, "graph_hash");

  // The partitioned driver must refuse a distributed-driver snapshot.
  try {
    (void)imm_distributed_partitioned(graph, options);
    FAIL() << "resume accepted despite changed driver";
  } catch (const CheckpointError &error) {
    EXPECT_EQ(error.kind(), LoadError::FingerprintMismatch);
    EXPECT_NE(std::string(error.what()).find("driver"), std::string::npos);
  }
}

TEST_F(CheckpointKill, LeapfrogSnapshotIsRefusedNotResumed) {
  // Snapshots of the retired leap-frog LCG mode carry rng_mode = 1.  Their
  // coordinates name other samples than the counter streams', so resuming
  // one must be refused with the field named, not replayed.
  const CsrGraph graph = checkpoint_graph();
  ImmOptions options =
      cell_options({"dist", 2, DiffusionModel::IndependentCascade,
                    SamplerEngine::Sequential, 1u});
  options.checkpoint.dir = dir();
  (void)imm_distributed(graph, options);
  std::optional<Snapshot> snapshot = CheckpointManager(dir()).load_latest();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->fingerprint.rng_mode, 0);

  snapshot->fingerprint.rng_mode = 1;
  options.checkpoint.dir = (directory_ / "leapfrog").string();
  CheckpointManager(options.checkpoint.dir).write_now(*snapshot);
  options.checkpoint.resume = true;
  try {
    (void)imm_distributed(graph, options);
    FAIL() << "resume accepted a leap-frog snapshot";
  } catch (const CheckpointError &error) {
    EXPECT_EQ(error.kind(), LoadError::FingerprintMismatch);
    EXPECT_NE(std::string(error.what()).find("rng_mode"), std::string::npos)
        << error.what();
  }
}

TEST_F(CheckpointKill, CheckpointingComposesWithFaultHealing) {
  // PR 3 axis: a checkpointed run that also heals an injected crash must
  // still produce the failure-free outcome, and its snapshots must still
  // carry a resume to that same outcome (the healed run keeps exactly one
  // writer: the current dense rank 0).
  const CsrGraph graph = checkpoint_graph();
  ResumeCell cell{"dist", 3, DiffusionModel::IndependentCascade,
                  SamplerEngine::Sequential, 1u};
  ImmOptions options = cell_options(cell);
  const ImmResult clean = imm_distributed(graph, options);

  options.checkpoint.dir = dir();
  options.recover_failures = true;
  options.fault_plan = "rank=2,site=6";
  const ImmResult healed = [&] {
    fault_probe::ScopedMetrics metrics_on;
    return fault_probe::expect_fired(
        options.fault_plan, {fault_probe::kCrashes, fault_probe::kShrinks},
        [&] { return imm_distributed(graph, options); });
  }();
  expect_identical_outcome(healed, clean, "healed + checkpointed");

  ImmOptions resume_options = cell_options(cell);
  resume_options.checkpoint.dir = dir();
  resume_options.checkpoint.resume = true;
  const ImmResult resumed = imm_distributed(graph, resume_options);
  expect_identical_outcome(resumed, clean, "resume from a healed run");
}

TEST_F(CheckpointKill, WritesAndBytesAreCounted) {
  const CsrGraph graph = checkpoint_graph();
  ImmOptions options =
      cell_options({"dist", 2, DiffusionModel::IndependentCascade,
                    SamplerEngine::Sequential, 1u});
  options.checkpoint.dir = dir();
  metrics::set_enabled(true);
  metrics::Registry &registry = metrics::Registry::instance();
  const std::uint64_t writes0 =
      registry.counter("imm.checkpoint.writes").value();
  const std::uint64_t bytes0 = registry.counter("imm.checkpoint.bytes").value();
  (void)imm_distributed(graph, options);
  metrics::set_enabled(false);
  EXPECT_GT(registry.counter("imm.checkpoint.writes").value(), writes0);
  EXPECT_GT(registry.counter("imm.checkpoint.bytes").value(), bytes0);
}

} // namespace
} // namespace ripples
