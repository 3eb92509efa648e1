// Tests for the mpsim message-passing runtime: every collective must match
// MPI semantics for all rank counts, datatypes, and buffer shapes the
// distributed IMM implementation uses.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "mpsim/communicator.hpp"

namespace ripples::mpsim {
namespace {

class MpsimRankCounts : public ::testing::TestWithParam<int> {};

TEST_P(MpsimRankCounts, RunExecutesEveryRankExactlyOnce) {
  const int p = GetParam();
  std::vector<std::atomic<int>> visits(p);
  Context::run(p, [&](Communicator &comm) {
    EXPECT_EQ(comm.size(), p);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), p);
    visits[static_cast<std::size_t>(comm.rank())].fetch_add(1);
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(visits[static_cast<std::size_t>(r)].load(), 1);
}

TEST_P(MpsimRankCounts, AllreduceSumMatchesSequentialReduction) {
  const int p = GetParam();
  const std::size_t len = 1000;
  Context::run(p, [&](Communicator &comm) {
    // rank r contributes value (r+1) * (i+1) at index i.
    std::vector<std::uint32_t> buffer(len);
    for (std::size_t i = 0; i < len; ++i)
      buffer[i] = static_cast<std::uint32_t>((comm.rank() + 1) * (i + 1));
    comm.allreduce(std::span<std::uint32_t>(buffer), ReduceOp::Sum);
    const std::uint32_t rank_sum = static_cast<std::uint32_t>(p * (p + 1) / 2);
    for (std::size_t i = 0; i < len; ++i)
      ASSERT_EQ(buffer[i], rank_sum * (i + 1)) << "index " << i;
  });
}

TEST_P(MpsimRankCounts, AllreduceMaxAndMin) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    std::vector<std::int64_t> buffer{comm.rank(), -comm.rank()};
    comm.allreduce(std::span<std::int64_t>(buffer), ReduceOp::Max);
    EXPECT_EQ(buffer[0], p - 1);
    EXPECT_EQ(buffer[1], 0);

    std::vector<std::int64_t> buffer2{comm.rank(), -comm.rank()};
    comm.allreduce(std::span<std::int64_t>(buffer2), ReduceOp::Min);
    EXPECT_EQ(buffer2[0], 0);
    EXPECT_EQ(buffer2[1], -(p - 1));
  });
}

TEST_P(MpsimRankCounts, ReduceDeliversOnlyToRoot) {
  const int p = GetParam();
  const int root = p - 1;
  Context::run(p, [&](Communicator &comm) {
    std::vector<std::uint64_t> buffer{1, static_cast<std::uint64_t>(comm.rank())};
    comm.reduce(std::span<std::uint64_t>(buffer), ReduceOp::Sum, root);
    if (comm.rank() == root) {
      EXPECT_EQ(buffer[0], static_cast<std::uint64_t>(p));
      EXPECT_EQ(buffer[1], static_cast<std::uint64_t>(p * (p - 1) / 2));
    } else {
      // Non-root buffers are untouched, as with MPI_Reduce.
      EXPECT_EQ(buffer[0], 1u);
      EXPECT_EQ(buffer[1], static_cast<std::uint64_t>(comm.rank()));
    }
  });
}

TEST_P(MpsimRankCounts, BroadcastCopiesRootBuffer) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    std::vector<double> buffer(64, static_cast<double>(comm.rank()));
    if (comm.rank() == 0)
      for (std::size_t i = 0; i < buffer.size(); ++i)
        buffer[i] = 3.5 * static_cast<double>(i);
    comm.broadcast(std::span<double>(buffer), 0);
    for (std::size_t i = 0; i < buffer.size(); ++i)
      ASSERT_DOUBLE_EQ(buffer[i], 3.5 * static_cast<double>(i));
  });
}

TEST_P(MpsimRankCounts, AllgatherOrdersByRank) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    std::vector<std::uint64_t> gathered =
        comm.allgather(static_cast<std::uint64_t>(comm.rank() * 10));
    ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(gathered[static_cast<std::size_t>(r)],
                static_cast<std::uint64_t>(r * 10));
  });
}

TEST_P(MpsimRankCounts, AllgathervConcatenatesVariableLengths) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    // rank r contributes r entries: r, r, ..., so the concatenation is
    // 1x"1", 2x"2", ... in rank order (rank 0 contributes nothing).
    std::vector<std::uint32_t> local(static_cast<std::size_t>(comm.rank()),
                                     static_cast<std::uint32_t>(comm.rank()));
    std::vector<std::uint32_t> all =
        comm.allgatherv(std::span<const std::uint32_t>(local));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p * (p - 1) / 2));
    std::size_t offset = 0;
    for (int r = 0; r < p; ++r)
      for (int j = 0; j < r; ++j)
        EXPECT_EQ(all[offset++], static_cast<std::uint32_t>(r));
  });
}

TEST_P(MpsimRankCounts, AllgathervCarriesStructsAndSkipsEmptyContributions) {
  struct Pair {
    std::uint32_t a;
    std::uint32_t b;
  };
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    // Even ranks contribute one pair, odd ranks nothing: the result is the
    // even ranks' pairs in rank order, each field intact.
    const auto me = static_cast<std::uint32_t>(comm.rank());
    std::vector<Pair> local;
    if (me % 2 == 0) local.push_back(Pair{me, me * 100});
    std::vector<Pair> all = comm.allgatherv(std::span<const Pair>(local));
    ASSERT_EQ(all.size(), static_cast<std::size_t>((p + 1) / 2));
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i].a, 2 * i);
      EXPECT_EQ(all[i].b, 200 * i);
    }
  });
}

TEST_P(MpsimRankCounts, CollectiveSequencesStayInLockstep) {
  // Mixed sequence of collectives: any pointer/slot reuse bug would corrupt
  // the later results.
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    for (int round = 0; round < 5; ++round) {
      std::vector<std::uint32_t> ones(17, 1);
      comm.allreduce(std::span<std::uint32_t>(ones), ReduceOp::Sum);
      ASSERT_EQ(ones[0], static_cast<std::uint32_t>(p));

      std::vector<std::uint32_t> value{static_cast<std::uint32_t>(round)};
      comm.broadcast(std::span<std::uint32_t>(value), round % p);
      ASSERT_EQ(value[0], static_cast<std::uint32_t>(round));

      comm.barrier();
      auto gathered = comm.allgather(comm.rank());
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MpsimRankCounts,
                         ::testing::Values(1, 2, 3, 4, 7, 16));

TEST_P(MpsimRankCounts, GatherDeliversOnlyToRoot) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    std::vector<std::int64_t> gathered =
        comm.gather(static_cast<std::int64_t>(comm.rank() * 3), 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r)
        EXPECT_EQ(gathered[static_cast<std::size_t>(r)], 3 * r);
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST_P(MpsimRankCounts, ScatterDistributesRootValues) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    std::vector<std::uint32_t> values;
    if (comm.rank() == 0)
      for (int r = 0; r < p; ++r)
        values.push_back(static_cast<std::uint32_t>(100 + r));
    std::uint32_t mine =
        comm.scatter(std::span<const std::uint32_t>(values), 0);
    EXPECT_EQ(mine, static_cast<std::uint32_t>(100 + comm.rank()));
  });
}

TEST(MpsimPointToPoint, RingPassesAToken) {
  const int p = 4;
  Context::run(p, [&](Communicator &comm) {
    // Token accumulates each rank's id as it circles 0 -> 1 -> ... -> 0.
    std::uint64_t token[1];
    if (comm.rank() == 0) {
      token[0] = 1;
      comm.send(std::span<const std::uint64_t>(token, 1), 1);
      comm.recv(std::span<std::uint64_t>(token, 1), p - 1);
      EXPECT_EQ(token[0], 1u + 1 + 2 + 3);
    } else {
      comm.recv(std::span<std::uint64_t>(token, 1), comm.rank() - 1);
      token[0] += static_cast<std::uint64_t>(comm.rank());
      comm.send(std::span<const std::uint64_t>(token, 1),
                (comm.rank() + 1) % p);
    }
  });
}

TEST(MpsimPointToPoint, MessagesOnOneChannelStayOrdered) {
  Context::run(2, [&](Communicator &comm) {
    if (comm.rank() == 0) {
      for (std::uint32_t i = 0; i < 50; ++i) {
        std::uint32_t payload[1] = {i};
        comm.send(std::span<const std::uint32_t>(payload, 1), 1);
      }
    } else {
      for (std::uint32_t i = 0; i < 50; ++i) {
        std::uint32_t payload[1] = {0};
        comm.recv(std::span<std::uint32_t>(payload, 1), 0);
        ASSERT_EQ(payload[0], i);
      }
    }
  });
}

TEST(MpsimPointToPoint, LargePayloadRoundTrips) {
  Context::run(2, [&](Communicator &comm) {
    const std::size_t length = 1 << 18;
    if (comm.rank() == 0) {
      std::vector<double> payload(length);
      for (std::size_t i = 0; i < length; ++i)
        payload[i] = static_cast<double>(i) * 0.5;
      comm.send(std::span<const double>(payload), 1);
    } else {
      std::vector<double> received(length, -1.0);
      comm.recv(std::span<double>(received), 0);
      for (std::size_t i = 0; i < length; i += 4096)
        ASSERT_DOUBLE_EQ(received[i], static_cast<double>(i) * 0.5);
    }
  });
}

TEST(MpsimPointToPoint, ConcurrentPairsDoNotInterfere) {
  // Ranks 0<->1 and 2<->3 exchange simultaneously on disjoint channels.
  Context::run(4, [&](Communicator &comm) {
    int partner = comm.rank() ^ 1;
    std::uint32_t outgoing[1] = {static_cast<std::uint32_t>(comm.rank() + 10)};
    std::uint32_t incoming[1] = {0};
    if (comm.rank() < partner) {
      comm.send(std::span<const std::uint32_t>(outgoing, 1), partner);
      comm.recv(std::span<std::uint32_t>(incoming, 1), partner);
    } else {
      comm.recv(std::span<std::uint32_t>(incoming, 1), partner);
      comm.send(std::span<const std::uint32_t>(outgoing, 1), partner);
    }
    EXPECT_EQ(incoming[0], static_cast<std::uint32_t>(partner + 10));
  });
}

TEST(Mpsim, EmptyBuffersAreLegal) {
  Context::run(4, [&](Communicator &comm) {
    std::vector<std::uint32_t> empty;
    comm.allreduce(std::span<std::uint32_t>(empty), ReduceOp::Sum);
    std::vector<std::uint32_t> gathered =
        comm.allgatherv(std::span<const std::uint32_t>(empty));
    EXPECT_TRUE(gathered.empty());
  });
}

TEST(Mpsim, SingleRankAllreduceIsIdentity) {
  Context::run(1, [&](Communicator &comm) {
    std::vector<std::uint32_t> buffer{5, 6, 7};
    comm.allreduce(std::span<std::uint32_t>(buffer), ReduceOp::Sum);
    EXPECT_EQ(buffer, (std::vector<std::uint32_t>{5, 6, 7}));
  });
}

TEST(Mpsim, LargeRankCountCompletes) {
  // The Edison experiments simulate up to 1024 ranks; make sure the runtime
  // scales to large teams.  128 here keeps test time low.
  std::atomic<int> total{0};
  Context::run(128, [&](Communicator &comm) {
    auto gathered = comm.allgather(1);
    total.fetch_add(static_cast<int>(gathered.size()));
  });
  EXPECT_EQ(total.load(), 128 * 128);
}

TEST(Mpsim, ThrowingRankUnblocksPeersInAllreduce) {
  // The deadlock this guards against: rank 1 throws before joining the
  // collective while ranks 0, 2, 3 wait inside allreduce forever.  The
  // abort protocol must unwind the waiters and surface the original error.
  EXPECT_THROW(
      Context::run(4,
                   [](Communicator &comm) {
                     if (comm.rank() == 1)
                       throw std::runtime_error("rank 1 failure");
                     std::vector<std::uint32_t> ones(8, 1);
                     comm.allreduce(std::span<std::uint32_t>(ones),
                                    ReduceOp::Sum);
                   }),
      std::runtime_error);
}

TEST(Mpsim, ThrowingRankUnblocksPeersInBarrier) {
  EXPECT_THROW(Context::run(3,
                            [](Communicator &comm) {
                              if (comm.rank() == 2)
                                throw std::logic_error("rank 2 failure");
                              comm.barrier();
                            }),
               std::logic_error);
}

TEST(Mpsim, ThrowingRankUnblocksPeerInRecv) {
  // Rank 0 waits for a message that will never be sent; rank 1's failure
  // must wake it out of the mailbox wait.
  EXPECT_THROW(Context::run(2,
                            [](Communicator &comm) {
                              if (comm.rank() == 1)
                                throw std::runtime_error("sender died");
                              std::uint32_t buffer[1];
                              comm.recv(std::span<std::uint32_t>(buffer, 1), 1);
                            }),
               std::runtime_error);
}

TEST(Mpsim, ThrowingRankUnblocksPeerInSend) {
  // Rendezvous send blocks until the receiver drains it; the receiver's
  // failure must wake the sender.
  EXPECT_THROW(Context::run(2,
                            [](Communicator &comm) {
                              if (comm.rank() == 1)
                                throw std::runtime_error("receiver died");
                              std::uint32_t payload[1] = {42};
                              comm.send(
                                  std::span<const std::uint32_t>(payload, 1), 1);
                            }),
               std::runtime_error);
}

TEST(Mpsim, AbortDuringLaterRoundStillPropagates) {
  // Exercise the generation logic: several successful collectives, then a
  // mid-computation failure with peers already waiting in the next round.
  EXPECT_THROW(Context::run(4,
                            [](Communicator &comm) {
                              for (int round = 0; round < 3; ++round) {
                                std::vector<std::uint32_t> ones(4, 1);
                                comm.allreduce(std::span<std::uint32_t>(ones),
                                               ReduceOp::Sum);
                              }
                              if (comm.rank() == 3)
                                throw std::runtime_error("late failure");
                              comm.barrier();
                            }),
               std::runtime_error);
}

TEST(Mpsim, CommStatsCountCollectivesWhenEnabled) {
  metrics::set_enabled(true);
  const CommStatsSnapshot before = comm_stats();
  Context::run(3, [](Communicator &comm) {
    std::vector<std::uint32_t> ones(10, 1);
    comm.allreduce(std::span<std::uint32_t>(ones), ReduceOp::Sum);
    comm.barrier();
  });
  const CommStatsSnapshot delta = comm_stats().since(before);
  metrics::set_enabled(false);

  const auto allreduce = static_cast<std::size_t>(Collective::Allreduce);
  const auto barrier = static_cast<std::size_t>(Collective::Barrier);
  EXPECT_EQ(delta.calls[allreduce], 3u);
  EXPECT_EQ(delta.bytes[allreduce], 3u * 10 * sizeof(std::uint32_t));
  EXPECT_EQ(delta.calls[barrier], 3u);
  EXPECT_EQ(delta.bytes[barrier], 0u);
}

TEST(Mpsim, CommStatsStayZeroWhenDisabled) {
  metrics::set_enabled(false);
  const CommStatsSnapshot before = comm_stats();
  Context::run(2, [](Communicator &comm) {
    std::vector<std::uint32_t> ones(10, 1);
    comm.allreduce(std::span<std::uint32_t>(ones), ReduceOp::Sum);
  });
  const CommStatsSnapshot delta = comm_stats().since(before);
  for (std::size_t c = 0; c < kNumCollectives; ++c) {
    EXPECT_EQ(delta.calls[c], 0u) << to_string(static_cast<Collective>(c));
    EXPECT_EQ(delta.bytes[c], 0u) << to_string(static_cast<Collective>(c));
  }
}

TEST(Mpsim, ExceptionInSingleRankRunPropagates) {
  EXPECT_THROW(Context::run(1,
                            [](Communicator &) {
                              throw std::runtime_error("rank failure");
                            }),
               std::runtime_error);
}

TEST(Mpsim, SymmetricExceptionsPropagateFirst) {
  EXPECT_THROW(Context::run(4,
                            [](Communicator &) {
                              throw std::runtime_error("all ranks fail");
                            }),
               std::runtime_error);
}

} // namespace
} // namespace ripples::mpsim
