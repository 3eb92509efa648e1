// Tests for the fault-injection + recovery stack: plan parsing, deterministic
// crash/stall injection, the abort protocol across every collective shape,
// ULFM-style shrink()/RankFailed recovery, the collective watchdog, and the
// end-to-end self-healing guarantee of imm_distributed (a crashed rank's RRR
// sets are regenerated bit-identically, so the healed run returns exactly the
// failure-free seed set).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/budget.hpp"
#include "imm/imm.hpp"
#include "mpsim/communicator.hpp"
#include "support/json.hpp"
#include "support/memory.hpp"
#include "support/metrics.hpp"
#include "support/steal_schedule.hpp"

#include "fault_probe.hpp"

namespace ripples::mpsim {
namespace {

// --- fault-plan parsing ------------------------------------------------------

TEST(FaultPlan, ParsesSingleCrashSpec) {
  FaultPlan plan = parse_fault_plan("rank=2,site=17");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].rank, 2);
  EXPECT_EQ(plan[0].site, 17u);
  EXPECT_EQ(plan[0].kind, FaultSpec::Kind::Crash);
}

TEST(FaultPlan, ParsesExplicitKindsAndMultipleSpecs) {
  FaultPlan plan =
      parse_fault_plan("rank=0,site=3,kind=stall;rank=4,site=9,kind=crash");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].kind, FaultSpec::Kind::Stall);
  EXPECT_EQ(plan[0].rank, 0);
  EXPECT_EQ(plan[1].kind, FaultSpec::Kind::Crash);
  EXPECT_EQ(plan[1].site, 9u);
}

TEST(FaultPlan, ParsesOomKind) {
  FaultPlan plan = parse_fault_plan("rank=1,site=6,kind=oom");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].kind, FaultSpec::Kind::Oom);
  EXPECT_EQ(plan[0].rank, 1);
  EXPECT_EQ(plan[0].site, 6u);
}

TEST(FaultPlan, ParsesCorruptKindWithTheStickyModifier) {
  FaultPlan plan =
      parse_fault_plan("rank=1,site=4,kind=corrupt;"
                       "rank=2,site=7,kind=corrupt,sticky");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].kind, FaultSpec::Kind::Corrupt);
  EXPECT_FALSE(plan[0].sticky);
  EXPECT_EQ(plan[1].kind, FaultSpec::Kind::Corrupt);
  EXPECT_TRUE(plan[1].sticky);
}

TEST(FaultPlan, ParsesFlakyKindWithAttempts) {
  FaultPlan plan =
      parse_fault_plan("rank=0,site=2,kind=flaky;"
                       "rank=1,site=3,kind=flaky,attempts=5");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].kind, FaultSpec::Kind::Flaky);
  EXPECT_EQ(plan[0].attempts, 1u); // default: fail the first attempt only
  EXPECT_EQ(plan[1].attempts, 5u);
}

TEST(FaultPlan, StickyOnANonCorruptKindThrowsNamingTheSpec) {
  try {
    (void)parse_fault_plan("rank=0,site=1,kind=crash,sticky");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument &error) {
    EXPECT_NE(std::string(error.what()).find("sticky"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("kind=crash,sticky"),
              std::string::npos);
  }
}

TEST(FaultPlan, AttemptsOnANonFlakyKindThrowsNamingTheSpec) {
  try {
    (void)parse_fault_plan("rank=0,site=1,kind=corrupt,attempts=2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument &error) {
    EXPECT_NE(std::string(error.what()).find("attempts"), std::string::npos);
  }
}

TEST(FaultPlan, ZeroAttemptsThrows) {
  EXPECT_THROW((void)parse_fault_plan("rank=0,site=1,kind=flaky,attempts=0"),
               std::invalid_argument);
}

TEST(FaultPlan, DuplicateRankSitePairThrowsNamingTheSpec) {
  try {
    (void)parse_fault_plan("rank=1,site=4;rank=1,site=4,kind=stall");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument &error) {
    EXPECT_NE(std::string(error.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("rank=1,site=4,kind=stall"),
              std::string::npos);
  }
}

TEST(FaultPlan, UnknownKindNamesTheAlternatives) {
  try {
    (void)parse_fault_plan("rank=1,site=3,kind=vanish");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument &error) {
    EXPECT_NE(
        std::string(error.what()).find("crash|stall|oom|corrupt|flaky"),
        std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("vanish"), std::string::npos);
  }
}

TEST(FaultPlan, EmptyStringYieldsEmptyPlan) {
  EXPECT_TRUE(parse_fault_plan("").empty());
}

TEST(FaultPlan, MalformedSpecsThrowNamingTheToken) {
  EXPECT_THROW((void)parse_fault_plan("rank=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("site=3"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("rank=x,site=3"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("rank=1,site=3,kind=vanish"),
               std::invalid_argument);
  try {
    (void)parse_fault_plan("rank=1,site=2;bogus=7");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument &error) {
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos);
  }
}

TEST(FaultPlan, InjectedFaultMessageIsDeterministic) {
  const InjectedFault a(3, 12, "allreduce");
  const InjectedFault b(3, 12, "allreduce");
  EXPECT_STREQ(a.what(), b.what());
  EXPECT_EQ(a.rank(), 3);
  EXPECT_EQ(a.site(), 12u);
  EXPECT_NE(std::string(a.what()).find("rank 3"), std::string::npos);
  EXPECT_NE(std::string(a.what()).find("site 12"), std::string::npos);
}

// --- no environment fallbacks ------------------------------------------------

TEST(FaultEnv, DefaultRunOptionsIgnoreTheEnvironment) {
  // RunOptions and the drivers' fault plan are explicit: an empty plan, a
  // zero watchdog and verification off stay off whatever the environment
  // says (imm_test pins the same for ImmOptions).
  setenv("RIPPLES_FAULTS", "rank=1,site=0;rank=0,site=1,kind=oom", 1);
  setenv("RIPPLES_WATCHDOG_MS", "1", 1);
  setenv("RIPPLES_VERIFY_COLLECTIVES", "1", 1);
  metrics::Counter &checks =
      metrics::Registry::instance().counter("integrity.checks");
  metrics::set_enabled(true);
  const std::uint64_t checks0 = checks.value();
  RunOptions options;
  options.num_ranks = 3;
  EXPECT_NO_THROW(Context::run(options, [](Communicator &comm) {
    std::vector<std::uint64_t> buffer(2, 1);
    for (int round = 0; round < 4; ++round) {
      comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
      // Longer than the environment's watchdog deadline.
      if (comm.rank() == 2)
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
    }
  }));
  EXPECT_EQ(checks.value(), checks0);
  metrics::set_enabled(false);
  EXPECT_TRUE(ripples::detail::oom_faults_from_plan("").empty());
  unsetenv("RIPPLES_FAULTS");
  unsetenv("RIPPLES_WATCHDOG_MS");
  unsetenv("RIPPLES_VERIFY_COLLECTIVES");
}

// --- abort protocol (recovery disabled) --------------------------------------

RunOptions crash_plan(int ranks, int victim, std::uint64_t site) {
  RunOptions options;
  options.num_ranks = ranks;
  options.faults = {{victim, site, FaultSpec::Kind::Crash}};
  return options;
}

TEST(FaultAbort, CrashUnblocksPeersInAllreduce) {
  RunOptions options = crash_plan(4, 2, 1);
  EXPECT_THROW(Context::run(options,
                            [](Communicator &comm) {
                              std::vector<std::uint64_t> buffer(8, 1);
                              for (;;)
                                comm.allreduce(std::span<std::uint64_t>(buffer),
                                               ReduceOp::Sum);
                            }),
               InjectedFault);
}

TEST(FaultAbort, CrashUnblocksPeersInBroadcast) {
  RunOptions options = crash_plan(4, 0, 2);
  EXPECT_THROW(Context::run(options,
                            [](Communicator &comm) {
                              std::vector<std::uint32_t> buffer(4, 7);
                              for (;;)
                                comm.broadcast(std::span<std::uint32_t>(buffer),
                                               1);
                            }),
               InjectedFault);
}

TEST(FaultAbort, CrashUnblocksPeersInAllgather) {
  RunOptions options = crash_plan(3, 1, 3);
  EXPECT_THROW(Context::run(options,
                            [](Communicator &comm) {
                              for (;;)
                                (void)comm.allgather(
                                    static_cast<std::uint64_t>(comm.rank()));
                            }),
               InjectedFault);
}

TEST(FaultAbort, CrashUnblocksBlockedReceiver) {
  // Rank 0 crashes at its first communication entry; rank 1 is blocked in
  // recv on the channel rank 0 would have served.
  RunOptions options = crash_plan(2, 0, 0);
  EXPECT_THROW(Context::run(options,
                            [](Communicator &comm) {
                              std::uint64_t value = 0;
                              if (comm.rank() == 0) {
                                comm.send(std::span<const std::uint64_t>(&value, 1),
                                          1);
                              } else {
                                comm.recv(std::span<std::uint64_t>(&value, 1), 0);
                              }
                            }),
               InjectedFault);
}

TEST(FaultAbort, CrashUnblocksBlockedSender) {
  // Rank 1 crashes before posting its recv; rank 0 is blocked in the send
  // rendezvous waiting for the payload to be consumed.
  RunOptions options = crash_plan(2, 1, 0);
  EXPECT_THROW(Context::run(options,
                            [](Communicator &comm) {
                              std::uint64_t value = 42;
                              if (comm.rank() == 0) {
                                comm.send(std::span<const std::uint64_t>(&value, 1),
                                          1);
                              } else {
                                comm.recv(std::span<std::uint64_t>(&value, 1), 0);
                              }
                            }),
               InjectedFault);
}

TEST(FaultAbort, SiteCounterIsDeterministicAcrossRuns) {
  // Ten runs of one plan must fail with byte-identical diagnostics: the
  // site counter is per-rank program order, not a scheduling accident.
  std::set<std::string> messages;
  for (int run = 0; run < 10; ++run) {
    RunOptions options = crash_plan(3, 2, 4);
    try {
      Context::run(options, [](Communicator &comm) {
        std::vector<std::uint64_t> buffer(4, 1);
        for (;;) comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
      });
      FAIL() << "expected InjectedFault";
    } catch (const InjectedFault &fault) {
      EXPECT_EQ(fault.rank(), 2);
      EXPECT_EQ(fault.site(), 4u);
      messages.insert(fault.what());
    }
  }
  EXPECT_EQ(messages.size(), 1u);
}

// --- shrink + recovery -------------------------------------------------------

/// Runs \p body on every rank with recovery enabled and one planned crash,
/// wrapping it in the catch-RankFailed / shrink() retry loop survivors use.
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

TEST(FaultRecovery, SurvivorsShrinkAndFinishAllreduce) {
  RunOptions options = crash_plan(4, 2, 2);
  std::atomic<int> finishers{0};
  run_with_recovery(options, [&](Communicator &comm) {
    std::vector<std::uint64_t> buffer(16);
    for (int round = 0; round < 6; ++round) {
      std::fill(buffer.begin(), buffer.end(), 1);
      comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
      // Every live rank contributed exactly 1 per slot.
      for (std::uint64_t v : buffer)
        ASSERT_EQ(v, static_cast<std::uint64_t>(comm.size()));
    }
    finishers.fetch_add(1);
  });
  EXPECT_EQ(finishers.load(), 3);
}

TEST(FaultRecovery, ShrinkReportsTheDeadAndRenumbersDensely) {
  RunOptions options = crash_plan(4, 0, 1);
  options.recover = true;
  std::atomic<int> checked{0};
  Context::run(options, [&](Communicator &comm) {
    try {
      for (;;) comm.barrier();
    } catch (const RankFailed &failed) {
      EXPECT_EQ(failed.dead_ranks(), std::vector<int>{0});
      ShrinkResult result = comm.shrink();
      EXPECT_EQ(result.newly_dead, std::vector<int>{0});
      EXPECT_EQ(result.members, (std::vector<int>{1, 2, 3}));
      // World rank 1 is now dense rank 0; world identity is immutable.
      EXPECT_EQ(comm.size(), 3);
      EXPECT_EQ(comm.rank(), comm.world_rank() - 1);
      EXPECT_EQ(comm.world_size(), 4);
      checked.fetch_add(1);
    }
  });
  EXPECT_EQ(checked.load(), 3);
}

TEST(FaultRecovery, BroadcastAndAllgatherWorkOnTheShrunkenTeam) {
  RunOptions options = crash_plan(4, 1, 0);
  std::atomic<int> finishers{0};
  run_with_recovery(options, [&](Communicator &comm) {
    // Dense root 0: world rank 0 before the crash surfaces, world rank 0
    // after the shrink too (rank 1 died), but the team is smaller.
    std::vector<std::uint32_t> buffer(4);
    if (comm.rank() == 0) std::iota(buffer.begin(), buffer.end(), 100u);
    comm.broadcast(std::span<std::uint32_t>(buffer), 0);
    for (std::uint32_t i = 0; i < 4; ++i) ASSERT_EQ(buffer[i], 100u + i);

    std::vector<std::uint64_t> gathered =
        comm.allgather(static_cast<std::uint64_t>(comm.world_rank()));
    ASSERT_EQ(gathered.size(), static_cast<std::size_t>(comm.size()));
    for (std::size_t i = 0; i < gathered.size(); ++i)
      ASSERT_EQ(gathered[i],
                static_cast<std::uint64_t>(comm.members()[i]));
    finishers.fetch_add(1);
  });
  EXPECT_EQ(finishers.load(), 3);
}

TEST(FaultRecovery, SendRecvWorkAcrossDenseRanksAfterShrink) {
  RunOptions options = crash_plan(3, 1, 0);
  std::atomic<int> finishers{0};
  run_with_recovery(options, [&](Communicator &comm) {
    if (comm.size() == 3) {
      // Pre-crash team: force everyone into a collective so the crash at
      // rank 1's first entry surfaces as RankFailed for the survivors.
      comm.barrier();
      return;
    }
    // Post-shrink: dense ranks 0 and 1 are world ranks 0 and 2.
    std::uint64_t value = 0;
    if (comm.rank() == 0) {
      value = 77;
      comm.send(std::span<const std::uint64_t>(&value, 1), 1);
    } else {
      comm.recv(std::span<std::uint64_t>(&value, 1), 0);
      EXPECT_EQ(value, 77u);
    }
    finishers.fetch_add(1);
  });
  EXPECT_EQ(finishers.load(), 2);
}

TEST(FaultRecovery, TwoSequentialDeathsShrinkTwice) {
  RunOptions options;
  options.num_ranks = 4;
  options.recover = true;
  options.faults = {{1, 2, FaultSpec::Kind::Crash},
                    {3, 6, FaultSpec::Kind::Crash}};
  std::atomic<int> finishers{0};
  run_with_recovery(options, [&](Communicator &comm) {
    std::vector<std::uint64_t> buffer(4);
    for (int round = 0; round < 10; ++round) {
      std::fill(buffer.begin(), buffer.end(), 1);
      comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
      for (std::uint64_t v : buffer)
        ASSERT_EQ(v, static_cast<std::uint64_t>(comm.size()));
    }
    EXPECT_EQ(comm.size(), 2);
    finishers.fetch_add(1);
  });
  EXPECT_EQ(finishers.load(), 2);
}

TEST(FaultRecovery, StealRequestToADeadRankNeverHangsOrServesStaleItems) {
  // The steal queues are deliberately outside the abort protocol: a
  // victim's queue stays readable after its owner dies, so a thief's
  // steal-request to a dead rank returns (item or empty) instead of
  // hanging — and after shrink() the dead rank leaves members_, so its
  // stale items become unreachable (healing regenerates those draws; a
  // thief serving them too would execute them twice).
  RunOptions options = crash_plan(3, 1, 1); // publish is site 0; barrier dies
  options.recover = true;
  std::array<std::vector<std::uint64_t>, 3> collected;
  Context::run(options, [&](Communicator &comm) {
    using Item = Communicator::StealItem;
    std::vector<Item> items;
    for (std::uint64_t t = 0; t < 8; ++t) {
      const std::uint64_t tag =
          static_cast<std::uint64_t>(comm.world_rank()) * 100 + t;
      items.push_back({tag, t, t + 1});
    }
    comm.steal_publish(items);
    try {
      for (;;) comm.barrier();
    } catch (const RankFailed &failed) {
      EXPECT_EQ(failed.dead_ranks(), std::vector<int>{1});
      (void)comm.shrink();
    }
    // Survivors drain: own pops plus steals that now scan live members
    // only.  Dead rank 1 published 8 items nobody may ever serve.
    Item item;
    auto &mine = collected[static_cast<std::size_t>(comm.world_rank())];
    for (;;) {
      if (comm.steal_pop(item)) {
        mine.push_back(item.tag);
      } else if (comm.steal_acquire(item)) {
        mine.push_back(item.tag);
      } else {
        break;
      }
    }
  });
  std::vector<std::uint64_t> all;
  for (const auto &part : collected)
    all.insert(all.end(), part.begin(), part.end());
  std::sort(all.begin(), all.end());
  // Exactly the 16 live items, each exactly once, none from the dead rank.
  std::vector<std::uint64_t> expected;
  for (std::uint64_t t = 0; t < 8; ++t) expected.push_back(t);
  for (std::uint64_t t = 0; t < 8; ++t) expected.push_back(200 + t);
  EXPECT_EQ(all, expected);
}

TEST(FaultRecovery, WithoutRecoveryTheOriginalExceptionSurfaces) {
  RunOptions options = crash_plan(3, 1, 1);
  options.recover = false;
  try {
    Context::run(options, [](Communicator &comm) {
      for (;;) comm.barrier();
    });
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault &fault) {
    EXPECT_EQ(fault.rank(), 1);
    EXPECT_EQ(fault.site(), 1u);
  }
}

TEST(FaultRecovery, EveryRankDeadRethrowsTheFirstFailure) {
  RunOptions options;
  options.num_ranks = 2;
  options.recover = true;
  // Both ranks crash; nobody completes, so the run must surface the error
  // instead of reporting silent success.
  options.faults = {{0, 0, FaultSpec::Kind::Crash},
                    {1, 0, FaultSpec::Kind::Crash}};
  EXPECT_THROW(Context::run(options,
                            [](Communicator &comm) {
                              for (;;) comm.barrier();
                            }),
               InjectedFault);
}

TEST(FaultRecovery, DeathMetricsCountTheFailureEvents) {
  metrics::set_enabled(true);
  metrics::Registry &registry = metrics::Registry::instance();
  const std::uint64_t deaths0 =
      registry.counter("mpsim.faults.dead_ranks").value();
  const std::uint64_t shrinks0 = registry.counter("mpsim.faults.shrinks").value();
  const std::uint64_t crashes0 =
      registry.counter("mpsim.faults.injected_crashes").value();
  RunOptions options = crash_plan(3, 2, 1);
  run_with_recovery(options, [](Communicator &comm) {
    std::vector<std::uint64_t> buffer(2, 1);
    for (int round = 0; round < 4; ++round)
      comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
  });
  metrics::set_enabled(false);
  EXPECT_EQ(registry.counter("mpsim.faults.dead_ranks").value(), deaths0 + 1);
  EXPECT_EQ(registry.counter("mpsim.faults.shrinks").value(), shrinks0 + 1);
  EXPECT_EQ(registry.counter("mpsim.faults.injected_crashes").value(),
            crashes0 + 1);
}

// --- watchdog ----------------------------------------------------------------

TEST(FaultWatchdog, StallBecomesDiagnosedTimeoutWithinTwiceTheDeadline) {
  // The deadline is also the margin against scheduler delay: rank 2 must
  // reach the stalled collective before rank 0's deadline expires, or it
  // is diagnosed as a laggard too, and the expiring waiter must wake within
  // one more deadline.  A loaded host (ctest -j) has delayed a rank by more
  // than 100 ms; one second is out of its reach.
  RunOptions options;
  options.num_ranks = 3;
  options.watchdog = std::chrono::milliseconds{1000};
  options.faults = {{1, 2, FaultSpec::Kind::Stall}};
  const auto start = std::chrono::steady_clock::now();
  try {
    Context::run(options, [](Communicator &comm) {
      std::vector<std::uint64_t> buffer(2, 1);
      for (;;) comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
    });
    FAIL() << "expected CollectiveTimeout";
  } catch (const CollectiveTimeout &timeout) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    EXPECT_EQ(timeout.laggards(), std::vector<int>{1});
    EXPECT_GE(timeout.waited(), options.watchdog);
    EXPECT_LT(timeout.waited(), 2 * options.watchdog);
    EXPECT_NE(std::string(timeout.what()).find("laggard rank(s) 1"),
              std::string::npos);
    // The whole run (including thread teardown) stays bounded too.
    EXPECT_LT(elapsed, 3 * options.watchdog);
  }
}

TEST(FaultWatchdog, StalledReceiverPeerTimesOutNamingThePeer) {
  RunOptions options;
  options.num_ranks = 2;
  options.watchdog = std::chrono::milliseconds{100};
  // Rank 1 stalls before posting its recv; rank 0's send rendezvous waits.
  options.faults = {{1, 0, FaultSpec::Kind::Stall}};
  try {
    Context::run(options, [](Communicator &comm) {
      std::uint64_t value = 5;
      if (comm.rank() == 0)
        comm.send(std::span<const std::uint64_t>(&value, 1), 1);
      else
        comm.recv(std::span<std::uint64_t>(&value, 1), 0);
    });
    FAIL() << "expected CollectiveTimeout";
  } catch (const CollectiveTimeout &timeout) {
    EXPECT_EQ(timeout.laggards(), std::vector<int>{1});
    EXPECT_LT(timeout.waited(), 2 * options.watchdog);
  }
}

TEST(FaultWatchdog, TimeoutIsNeverHealedEvenWithRecoveryEnabled) {
  RunOptions options;
  options.num_ranks = 3;
  options.recover = true;
  options.watchdog = std::chrono::milliseconds{100};
  options.faults = {{2, 1, FaultSpec::Kind::Stall}};
  EXPECT_THROW(Context::run(options,
                            [](Communicator &comm) {
                              for (;;) {
                                try {
                                  comm.barrier();
                                } catch (const RankFailed &) {
                                  (void)comm.shrink();
                                }
                              }
                            }),
               CollectiveTimeout);
}

// --- stall eviction ----------------------------------------------------------

TEST(FaultEviction, EvictStalledRoutesTheTimeoutIntoShrinkAndSurvivorsFinish) {
  RunOptions options;
  options.num_ranks = 3;
  options.recover = true;
  options.watchdog = std::chrono::milliseconds{100};
  options.evict_stalled = true;
  options.faults = {{1, 2, FaultSpec::Kind::Stall}};
  std::atomic<int> finishers{0};
  Context::run(options, [&](Communicator &comm) {
    std::vector<std::uint64_t> buffer(4);
    for (int round = 0; round < 6; ++round) {
      std::fill(buffer.begin(), buffer.end(), 1);
      try {
        comm.allreduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum);
      } catch (const RankFailed &failed) {
        EXPECT_EQ(failed.dead_ranks(), std::vector<int>{1});
        (void)comm.shrink();
        continue;
      }
      for (std::uint64_t v : buffer)
        ASSERT_EQ(v, static_cast<std::uint64_t>(comm.size()));
    }
    EXPECT_EQ(comm.size(), 2);
    finishers.fetch_add(1);
  });
  EXPECT_EQ(finishers.load(), 2);
}

TEST(FaultEviction, WithoutTheFlagStallsStayDiagnoseOnly) {
  // evict_stalled is opt-in: the PR 3 behavior (CollectiveTimeout, never
  // healed) is unchanged when the flag is off — even with recovery on.
  RunOptions options;
  options.num_ranks = 3;
  options.recover = true;
  options.watchdog = std::chrono::milliseconds{100};
  options.faults = {{1, 1, FaultSpec::Kind::Stall}};
  EXPECT_THROW(Context::run(options,
                            [](Communicator &comm) {
                              for (;;) {
                                try {
                                  comm.barrier();
                                } catch (const RankFailed &) {
                                  (void)comm.shrink();
                                }
                              }
                            }),
               CollectiveTimeout);
}

TEST(FaultEviction, EvictionsAreCounted) {
  metrics::set_enabled(true);
  metrics::Registry &registry = metrics::Registry::instance();
  const std::uint64_t evicted0 =
      registry.counter("mpsim.faults.evicted_stalls").value();
  RunOptions options;
  options.num_ranks = 3;
  options.recover = true;
  options.watchdog = std::chrono::milliseconds{100};
  options.evict_stalled = true;
  options.faults = {{2, 1, FaultSpec::Kind::Stall}};
  Context::run(options, [](Communicator &comm) {
    for (int round = 0; round < 4; ++round) {
      try {
        comm.barrier();
      } catch (const RankFailed &) {
        (void)comm.shrink();
      }
    }
  });
  metrics::set_enabled(false);
  EXPECT_GT(registry.counter("mpsim.faults.evicted_stalls").value(), evicted0);
}

TEST(FaultWatchdog, DisabledWatchdogDoesNotFireOnSlowRanks) {
  RunOptions options;
  options.num_ranks = 2;
  Context::run(options, [](Communicator &comm) {
    if (comm.rank() == 1)
      std::this_thread::sleep_for(std::chrono::milliseconds{30});
    comm.barrier();
  });
}

} // namespace
} // namespace ripples::mpsim

// --- self-healing imm_distributed -------------------------------------------

namespace ripples {
namespace {

using fault_probe::expect_fired;
using fault_probe::kCrashes;
using fault_probe::kEvictions;
using fault_probe::kRefusals;
using fault_probe::kShrinks;
using fault_probe::ScopedMetrics;

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

/// Threads per rank: a rank's team samples its windows, and a rank that
/// dies takes its whole team out of the run.
class ImmHealing : public ::testing::TestWithParam<unsigned> {};

TEST_P(ImmHealing, CrashAtAnySiteAndRankHealsToTheFailureFreeSeedSet) {
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.num_threads = GetParam();
  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);

  // A rank that dies mid-window, and a survivor whose window it aborts,
  // must both hand back the window's reservation.
  const std::size_t reserved = MemoryTracker::instance().reserved_bytes();
  options.recover_failures = true;
  ScopedMetrics metrics_on;
  for (int rank = 0; rank < options.num_ranks; ++rank) {
    for (std::uint64_t site : {std::uint64_t{0}, std::uint64_t{3},
                               std::uint64_t{9}}) {
      options.fault_plan = "rank=" + std::to_string(rank) +
                           ",site=" + std::to_string(site);
      const ImmResult healed =
          expect_fired(options.fault_plan, {kCrashes, kShrinks},
                       [&] { return imm_distributed(graph, options); });
      EXPECT_EQ(healed.seeds, clean.seeds)
          << "healed seed set diverged for " << options.fault_plan;
      EXPECT_EQ(MemoryTracker::instance().reserved_bytes(), reserved)
          << "reservation leaked for " << options.fault_plan;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ImmHealing, ::testing::Values(1u, 3u),
                         [](const auto &suite_info) {
                           return "threads" +
                                  std::to_string(suite_info.param);
                         });

/// Threads per rank: Alg. 4 runs on each rank's team, whose primary thread
/// makes the round's counter allreduce.
class ImmHealingEverySite : public ::testing::TestWithParam<unsigned> {};

TEST_P(ImmHealingEverySite, CrashAtEveryEarlySiteHealsBitIdentically) {
  // The sweep above samples three sites; this one crashes each rank at
  // every site 0..12, one collective of the early rounds at a time, the
  // greedy rounds' counter allreduces among them.  With threaded
  // ranks the failure surfaces on a team's primary thread and leaves the
  // team before the heal.
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.num_threads = GetParam();
  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);

  options.recover_failures = true;
  ScopedMetrics metrics_on;
  for (int rank = 0; rank < options.num_ranks; ++rank) {
    for (std::uint64_t site = 0; site <= 12; ++site) {
      options.fault_plan = "rank=" + std::to_string(rank) +
                           ",site=" + std::to_string(site);
      const ImmResult healed =
          expect_fired(options.fault_plan, {kCrashes, kShrinks},
                       [&] { return imm_distributed(graph, options); });
      EXPECT_EQ(healed.seeds, clean.seeds)
          << "healed seed set diverged for " << options.fault_plan;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ImmHealingEverySite,
                         ::testing::Values(1u, 3u),
                         [](const auto &suite_info) {
                           return "threads" +
                                  std::to_string(suite_info.param);
                         });

TEST(ImmHealing, EvictedStallHealsToTheFailureFreeSeedSet) {
  // PR 3 left stalls diagnose-only; with evict_stalled the watchdog routes
  // the laggard into the same RankFailed -> shrink() -> heal path a crash
  // takes, so a stalled rank costs a watchdog deadline, not the run.
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);

  options.recover_failures = true;
  options.watchdog_ms = 150;
  options.evict_stalled = true;
  options.fault_plan = "rank=1,site=4,kind=stall";
  ScopedMetrics metrics_on;
  const ImmResult healed =
      expect_fired(options.fault_plan, {kEvictions, kShrinks},
                   [&] { return imm_distributed(graph, options); });
  EXPECT_EQ(healed.seeds, clean.seeds);
  EXPECT_EQ(healed.theta, clean.theta);
  EXPECT_EQ(healed.coverage_fraction, clean.coverage_fraction);
}

TEST(ImmStealHealing, CrashAtStealSitesHealsToTheFailureFreeSeedSet) {
  // DESIGN.md §13: with the skewed partition and the steal-everything
  // schedule forced, every rank's early fault sites land on steal publishes
  // and acquires as well as collectives (acquire counts are
  // timing-dependent, so *which* operation a given site names varies run
  // to run — healing must cope with all of them, including a crash
  // mid-migration and subsequent steal-requests to the dead rank's queue).
  // The inventory heal regenerates exactly the complement of the
  // survivors' executed ranges, so every plan must return the
  // failure-free, stealing-off seed set.
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);

  steal_schedule::ScopedPlan forced(
      {steal_schedule::Mode::StealEverything, 0});
  options.steal = StealMode::On;
  options.steal_skew = true;
  {
    const ImmResult stealing = imm_distributed(graph, options);
    ASSERT_EQ(stealing.seeds, clean.seeds) << "fault-free stealing run";
  }

  // The drain loop runs inside an admission window, so a crash there
  // unwinds through the store: the window's reservation must come back.
  const std::size_t reserved = MemoryTracker::instance().reserved_bytes();
  options.recover_failures = true;
  ScopedMetrics metrics_on;
  for (int rank = 0; rank < options.num_ranks; ++rank) {
    for (std::uint64_t site = 0; site <= 12; site += 2) {
      options.fault_plan = "rank=" + std::to_string(rank) +
                           ",site=" + std::to_string(site);
      const ImmResult healed =
          expect_fired(options.fault_plan, {kCrashes, kShrinks},
                       [&] { return imm_distributed(graph, options); });
      EXPECT_EQ(healed.seeds, clean.seeds)
          << "stealing healed seed set diverged for " << options.fault_plan;
      EXPECT_EQ(MemoryTracker::instance().reserved_bytes(), reserved)
          << "reservation leaked for " << options.fault_plan;
    }
  }
}

TEST(ImmStealHealing, EvictedStallAtAStealSiteHealsToo) {
  // kind=stall coverage for the steal primitive: the stalled rank blocks
  // inside a steal-channel operation, the survivors park in the footprint
  // allreduce, and the watchdog + eviction route the laggard into the same
  // shrink -> inventory-heal path a crash takes.
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  const ImmResult clean = imm_distributed(graph, options);

  steal_schedule::ScopedPlan forced(
      {steal_schedule::Mode::StealEverything, 0});
  options.steal = StealMode::On;
  options.steal_skew = true;
  options.recover_failures = true;
  options.watchdog_ms = 150;
  options.evict_stalled = true;
  options.fault_plan = "rank=2,site=3,kind=stall";
  ScopedMetrics metrics_on;
  const ImmResult healed =
      expect_fired(options.fault_plan, {kEvictions, kShrinks},
                   [&] { return imm_distributed(graph, options); });
  EXPECT_EQ(healed.seeds, clean.seeds);
  EXPECT_EQ(healed.theta, clean.theta);
  EXPECT_EQ(healed.coverage_fraction, clean.coverage_fraction);
}

TEST(ImmHealing, CrashAtTheLastSiteOfAReusingRunHealsAndStillReuses) {
  // Every plan above runs an input that tops up theta, so its final
  // selection is computed.  At epsilon 0.7 theta fits in the accepted
  // round's |R| here: the final step returns that round's selection and
  // makes no collective of its own, so the victim's last communication
  // site falls in the accepted round.  A crash there heals, the restarted
  // loop runs a fresh trial, and the healed run still reuses it; one site
  // later no plan fires at all.
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.epsilon = 0.7;
  ScopedMetrics metrics_on;
  const std::uint64_t reused0 =
      fault_probe::value("imm.select.final_reused");
  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(fault_probe::value("imm.select.final_reused"), reused0 + 1)
      << "the input no longer accepts without a top-up";

  // The victim's site count: without recovery a planned crash throws
  // exactly when its site is reached.
  auto fires = [&](std::uint64_t site) {
    ImmOptions probe = options;
    probe.fault_plan = "rank=1,site=" + std::to_string(site);
    try {
      (void)imm_distributed(graph, probe);
      return false;
    } catch (const mpsim::InjectedFault &) {
      return true;
    }
  };
  std::uint64_t beyond = 16;
  while (fires(beyond)) beyond *= 2;
  std::uint64_t last = 0; // fires(last) holds, fires(beyond) does not
  while (beyond - last > 1) {
    const std::uint64_t mid = last + (beyond - last) / 2;
    (fires(mid) ? last : beyond) = mid;
  }

  options.recover_failures = true;
  options.fault_plan = "rank=1,site=" + std::to_string(last);
  const std::uint64_t reused1 =
      fault_probe::value("imm.select.final_reused");
  const ImmResult healed =
      expect_fired(options.fault_plan, {kCrashes, kShrinks},
                   [&] { return imm_distributed(graph, options); });
  EXPECT_EQ(healed.seeds, clean.seeds) << options.fault_plan;
  EXPECT_EQ(healed.theta, clean.theta) << options.fault_plan;
  EXPECT_EQ(fault_probe::value("imm.select.final_reused"), reused1 + 1)
      << options.fault_plan;

  options.fault_plan = "rank=1,site=" + std::to_string(last + 1);
  const std::uint64_t crashes0 = fault_probe::value(kCrashes);
  const ImmResult untouched = imm_distributed(graph, options);
  EXPECT_EQ(fault_probe::value(kCrashes), crashes0) << options.fault_plan;
  EXPECT_EQ(untouched.seeds, clean.seeds);
}

TEST(ImmHealing, TenRunsOfOnePlanAreFullyDeterministic) {
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  const ImmResult clean = imm_distributed(graph, options);

  options.recover_failures = true;
  options.fault_plan = "rank=1,site=5";
  ScopedMetrics metrics_on;
  for (int run = 0; run < 10; ++run) {
    const ImmResult healed =
        expect_fired(options.fault_plan, {kCrashes, kShrinks},
                     [&] { return imm_distributed(graph, options); });
    ASSERT_EQ(healed.seeds, clean.seeds) << "run " << run;
  }
}

TEST(ImmHealing, RegenerationIsCountedInMetrics) {
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.recover_failures = true;
  // Crash late enough that the victim owned samples worth regenerating.
  options.fault_plan = "rank=2,site=9";
  metrics::set_enabled(true);
  const std::uint64_t regen0 =
      metrics::Registry::instance().counter("imm.regen.rrr_sets").value();
  (void)imm_distributed(graph, options);
  metrics::set_enabled(false);
  EXPECT_GT(metrics::Registry::instance().counter("imm.regen.rrr_sets").value(),
            regen0);
}

TEST(ImmHealing, WithoutRecoveryTheInjectedFaultPropagates) {
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.fault_plan = "rank=1,site=5";
  EXPECT_THROW((void)imm_distributed(graph, options), mpsim::InjectedFault);
}

// --- kind=oom: budget refusal composing with healing and checkpointing -------

TEST(ImmOom, RefusalWithoutRecoveryPropagatesTheDiagnostic) {
  // An injected reservation failure walks the whole degradation ladder
  // (compress, shed, stop); the distributed rung-3 policy is a hard refusal
  // naming the consumer — never an unhandled bad_alloc.
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.fault_plan = "rank=1,site=1,kind=oom";
  try {
    (void)imm_distributed(graph, options);
    FAIL() << "injected oom was not diagnosed";
  } catch (const std::exception &error) {
    EXPECT_NE(std::string(error.what()).find("memory budget exceeded"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("imm_distributed.rrr"),
              std::string::npos)
        << error.what();
  }
}

TEST(ImmOom, RefusedRankHealsLikeACrashedRankAtEverySite) {
  // Composition with recovery: the budget-refused rank is evictable — the
  // survivors shrink, adopt its streams, and regenerate its samples
  // bit-identically, exactly as they would for a crash.
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);

  options.recover_failures = true;
  ScopedMetrics metrics_on;
  for (int rank = 0; rank < options.num_ranks; ++rank) {
    for (std::uint64_t site : {std::uint64_t{0}, std::uint64_t{1}}) {
      options.fault_plan = "rank=" + std::to_string(rank) +
                           ",site=" + std::to_string(site) + ",kind=oom";
      const ImmResult healed =
          expect_fired(options.fault_plan, {kRefusals, kShrinks},
                       [&] { return imm_distributed(graph, options); });
      // The heal guarantee is the crash-heal guarantee: the failure-free
      // *seed set*.  (An oom refusal fires mid-extend, not at a collective
      // boundary, so the martingale may accept one round later than the
      // clean run — theta equality is only promised for boundary faults.)
      EXPECT_EQ(healed.seeds, clean.seeds)
          << "healed seed set diverged for " << options.fault_plan;
      EXPECT_FALSE(healed.degraded) << options.fault_plan;
    }
  }
}

TEST(ImmOom, RefusalFlushesACheckpointAndALargerBudgetResumesBitIdentically) {
  // Composition with checkpointing: the refusal flushes the pending
  // snapshot before throwing, and a rerun with a roomier budget resumes
  // from it — the governor is excluded from the fingerprint — finishing
  // with exactly the failure-free seed set.
  namespace fs = std::filesystem;
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  const ImmResult clean = imm_distributed(graph, options);

  const fs::path dir =
      fs::path(::testing::TempDir()) / "ripples_oom_resume_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  options.checkpoint.dir = dir.string();
  options.checkpoint.every = 1;

  // Site 1 is the round-2 admission: the round-1 boundary snapshot
  // is already on disk when the refusal fires.
  options.fault_plan = "rank=0,site=1,kind=oom";
  EXPECT_THROW((void)imm_distributed(graph, options), std::exception);
  ASSERT_FALSE(fs::is_empty(dir)) << "refusal left no snapshot behind";

  options.fault_plan.clear();
  options.checkpoint.resume = true;
  const ImmResult resumed = imm_distributed(graph, options);
  EXPECT_EQ(resumed.seeds, clean.seeds);
  EXPECT_EQ(resumed.theta, clean.theta);
  EXPECT_EQ(resumed.coverage_fraction, clean.coverage_fraction);
  fs::remove_all(dir);
}

TEST(ImmOom, RefusalsAndReservationsAreCounted) {
  CsrGraph graph = healing_graph();
  ImmOptions options = healing_options();
  options.recover_failures = true;
  options.fault_plan = "rank=1,site=1,kind=oom";
  metrics::set_enabled(true);
  const std::uint64_t reservations0 =
      metrics::Registry::instance().counter("mem.budget.reservations").value();
  const std::uint64_t refusals0 =
      metrics::Registry::instance().counter("mem.budget.refusals").value();
  (void)imm_distributed(graph, options);
  metrics::set_enabled(false);
  EXPECT_GT(
      metrics::Registry::instance().counter("mem.budget.reservations").value(),
      reservations0);
  EXPECT_GT(
      metrics::Registry::instance().counter("mem.budget.refusals").value(),
      refusals0);
}

TEST(ImmHealing, FailedRunLeavesAMarkedReport) {
  metrics::set_enabled(true);
  metrics::report_log().clear();
  metrics::mark_run_failed("imm_distributed", "mpsim: injected crash");
  EXPECT_EQ(metrics::report_log().size(), 1u);
  const std::string path = ::testing::TempDir() + "fault_failed_report.json";
  ASSERT_TRUE(metrics::report_log().write_json_file(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::parse(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue *reports = parsed->find("reports");
  ASSERT_NE(reports, nullptr);
  ASSERT_EQ(reports->array.size(), 1u);
  const JsonValue *failed = reports->array[0].find("failed");
  ASSERT_NE(failed, nullptr);
  EXPECT_TRUE(failed->boolean);
  const JsonValue *reason = reports->array[0].find("failure_reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_EQ(reason->string, "mpsim: injected crash");
  metrics::report_log().clear();
  metrics::set_enabled(false);
  std::remove(path.c_str());
}

} // namespace
} // namespace ripples
