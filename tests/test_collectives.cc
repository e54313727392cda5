// Parameterized tests for tree collectives across communicator sizes,
// including non-powers-of-two and sub-communicators: results, message
// counts (the tree shapes) and a member's death inside a sub-communicator.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "mm/comm/communicator.h"
#include "mm/comm/launch.h"

namespace mm::comm {
namespace {

class CollectiveTest : public ::testing::TestWithParam<int> {
 protected:
  /// Runs `body` on GetParam() ranks spread over ceil(n/4) nodes; returns
  /// the number of messages the network carried.
  std::uint64_t Run(
      const std::function<void(RankContext&, Communicator&)>& body) {
    int n = GetParam();
    int per_node = 4;
    auto cluster = sim::Cluster::PaperTestbed((n + per_node - 1) / per_node);
    auto result = RunRanks(*cluster, n, per_node, [&](RankContext& ctx) {
      Communicator comm(&ctx);
      body(ctx, comm);
    });
    EXPECT_TRUE(result.ok()) << result.error;
    return cluster->network().total_messages();
  }
};

TEST_P(CollectiveTest, BcastFromRankZero) {
  Run([](RankContext& ctx, Communicator& comm) {
    std::vector<int> data;
    if (ctx.rank() == 0) data = {7, 8, 9};
    comm.Bcast(data, 0);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_EQ(data[0], 7);
    EXPECT_EQ(data[2], 9);
  });
}

TEST_P(CollectiveTest, BcastFromNonzeroRoot) {
  Run([](RankContext&, Communicator& comm) {
    int root = comm.size() - 1;
    std::vector<double> data;
    if (comm.rank() == root) data = {3.14};
    comm.Bcast(data, root);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_DOUBLE_EQ(data[0], 3.14);
  });
}

TEST_P(CollectiveTest, ReduceSumsToRoot) {
  Run([](RankContext& ctx, Communicator& comm) {
    std::vector<long> data = {static_cast<long>(ctx.rank() + 1), 1};
    comm.Reduce(data, 0, [](long a, long b) { return a + b; });
    if (comm.rank() == 0) {
      long n = comm.size();
      EXPECT_EQ(data[0], n * (n + 1) / 2);
      EXPECT_EQ(data[1], n);
    }
  });
}

TEST_P(CollectiveTest, AllReduceMax) {
  Run([](RankContext& ctx, Communicator& comm) {
    std::vector<int> data = {ctx.rank()};
    comm.AllReduce(data, [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(data[0], comm.size() - 1);
  });
}

TEST_P(CollectiveTest, GatherVCollectsPerRankSizes) {
  Run([](RankContext& ctx, Communicator& comm) {
    // Rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(ctx.rank()) + 1, ctx.rank());
    auto all = comm.GatherV(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
      for (int r = 0; r < comm.size(); ++r) {
        ASSERT_EQ(all[r].size(), static_cast<std::size_t>(r) + 1);
        for (int v : all[r]) EXPECT_EQ(v, r);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveTest, AllGatherVConcatenatesInRankOrder) {
  Run([](RankContext& ctx, Communicator& comm) {
    std::vector<int> mine = {ctx.rank() * 2, ctx.rank() * 2 + 1};
    auto flat = comm.AllGatherV(mine);
    ASSERT_EQ(flat.size(), static_cast<std::size_t>(comm.size()) * 2);
    for (int i = 0; i < comm.size() * 2; ++i) {
      EXPECT_EQ(flat[i], i);
    }
  });
}

TEST_P(CollectiveTest, ScatterVDistributesParts) {
  Run([](RankContext& ctx, Communicator& comm) {
    std::vector<std::vector<int>> parts;
    if (comm.rank() == 0) {
      parts.resize(comm.size());
      for (int r = 0; r < comm.size(); ++r) {
        parts[r] = {r, r * 10};
      }
    }
    auto mine = comm.ScatterV(parts, 0);
    ASSERT_EQ(mine.size(), 2u);
    EXPECT_EQ(mine[0], ctx.rank());
    EXPECT_EQ(mine[1], ctx.rank() * 10);
  });
}

TEST_P(CollectiveTest, SplitFormsCorrectGroups) {
  Run([](RankContext& ctx, Communicator& comm) {
    int color = ctx.rank() % 2;
    Communicator sub = comm.Split(color);
    int expected_size = comm.size() / 2 + (color == 0 ? comm.size() % 2 : 0);
    EXPECT_EQ(sub.size(), expected_size);
    // Group collective works inside the sub-communicator.
    std::vector<int> data = {1};
    sub.AllReduce(data, [](int a, int b) { return a + b; });
    EXPECT_EQ(data[0], expected_size);
    // World ranks in my group all share my color.
    for (int i = 0; i < sub.size(); ++i) {
      EXPECT_EQ(sub.WorldRank(i) % 2, color);
    }
  });
}

TEST_P(CollectiveTest, NestedSplit) {
  Run([](RankContext& ctx, Communicator& comm) {
    if (comm.size() < 4) return;
    Communicator half = comm.Split(ctx.rank() < comm.size() / 2 ? 0 : 1);
    Communicator quarter = half.Split(half.rank() % 2);
    std::vector<int> ones = {1};
    quarter.AllReduce(ones, [](int a, int b) { return a + b; });
    EXPECT_EQ(ones[0], quarter.size());
  });
}

TEST_P(CollectiveTest, SubBarrierSynchronizesGroupClocks) {
  Run([](RankContext& ctx, Communicator& comm) {
    if (comm.size() < 2) return;
    Communicator sub = comm.Split(ctx.rank() % 2);
    ctx.Compute(0.1 * (sub.rank() + 1));
    double max_before = 0.1 * sub.size();
    sub.Barrier();
    EXPECT_GE(ctx.clock().now(), max_before - 1e-12);
  });
}

TEST_P(CollectiveTest, MessageCountsPinTheTreeShapes) {
  // One message per tree edge: p-1 for each one-way collective, twice that
  // for the two-phase ones.
  const std::uint64_t edges = static_cast<std::uint64_t>(GetParam()) - 1;
  auto sum = [](int a, int b) { return a + b; };
  EXPECT_EQ(Run([](RankContext&, Communicator& comm) {
              std::vector<int> data;
              if (comm.rank() == comm.size() - 1) data = {1, 2, 3};
              comm.Bcast(data, comm.size() - 1);
            }),
            edges);
  EXPECT_EQ(Run([&](RankContext&, Communicator& comm) {
              std::vector<int> data = {comm.rank(), 1};
              comm.Reduce(data, 0, sum);
            }),
            edges);
  EXPECT_EQ(Run([&](RankContext&, Communicator& comm) {
              std::vector<int> data = {comm.rank()};
              comm.AllReduce(data, sum);
            }),
            2 * edges);
  EXPECT_EQ(Run([](RankContext&, Communicator& comm) {
              std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1);
              comm.GatherV(mine, 0);
            }),
            edges);
  EXPECT_EQ(Run([](RankContext&, Communicator& comm) {
              comm.AllGatherV(std::vector<int>{comm.rank()});
            }),
            2 * edges);
  EXPECT_EQ(Run([](RankContext&, Communicator& comm) {
              std::vector<std::vector<int>> parts;
              if (comm.rank() == 0) parts.resize(comm.size(), {7});
              comm.ScatterV(parts, 0);
            }),
            edges);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 33));

TEST(CollectiveScaling, BcastCostGrowsLogarithmically) {
  // Tree broadcast virtual cost should grow ~log(p), far slower than linear.
  auto measure = [](int n) {
    auto cluster = sim::Cluster::PaperTestbed(n);
    sim::SimTime t = 0;
    auto result = RunRanks(*cluster, n, 1, [&](RankContext& ctx) {
      Communicator comm(&ctx);
      std::vector<char> data;
      if (ctx.rank() == 0) data.assign(1'000'000, 'x');
      comm.Bcast(data, 0);
      comm.Barrier();
      if (ctx.rank() == 0) t = ctx.clock().now();
    });
    EXPECT_TRUE(result.ok());
    return t;
  };
  sim::SimTime t4 = measure(4);
  sim::SimTime t16 = measure(16);
  // 4x ranks should cost roughly 2x (log2 16 / log2 4), well under 3x.
  EXPECT_LT(t16, t4 * 3.0);
  EXPECT_GT(t16, t4);
}

// A member of a split sub-communicator dies (the parameter is its index in
// the group): every surviving member of that group gets kPeerDead from
// AllReduceOr, whatever the victim's place in the trees, while the other
// group's AllReduceOr completes untouched.
class SubGroupDeathTest : public ::testing::TestWithParam<int> {};

TEST_P(SubGroupDeathTest, AllReduceOrPoisonsEverySurvivingMember) {
  constexpr int kRanks = 6;
  auto cluster = sim::Cluster::PaperTestbed(2);
  const int victim = 2 * GetParam();  // group 0 holds world ranks 0, 2, 4
  std::atomic<int> poisoned{0};
  std::atomic<int> completed{0};
  auto result = RunRanks(*cluster, kRanks, 3, [&](RankContext& ctx) {
    Communicator world(&ctx);
    const int color = ctx.rank() % 2;
    Communicator sub = world.Split(color);
    if (ctx.rank() == victim) {
      ctx.world().KillRank(victim, ctx.clock().now());
      throw RankDeathError(victim);
    }
    std::vector<int> data = {ctx.rank() + 1};
    Status st = sub.AllReduceOr(data, [](int a, int b) { return a + b; });
    if (color == 0) {
      EXPECT_EQ(st.code(), StatusCode::kPeerDead) << st.ToString();
      poisoned.fetch_add(1);
    } else {
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(data[0], 2 + 4 + 6);  // world ranks 1, 3, 5
      completed.fetch_add(1);
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.dead_ranks, std::vector<int>{victim});
  EXPECT_EQ(poisoned.load(), 2);
  EXPECT_EQ(completed.load(), 3);
}

INSTANTIATE_TEST_SUITE_P(Victims, SubGroupDeathTest,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace mm::comm
