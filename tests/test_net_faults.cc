// Tests for deterministic network fault injection (DESIGN.md §13): link
// drop/duplication/delay/partition draws, sequence-number dedup in the
// mailbox, strict `faults:` YAML (unknown keys rejected), tag-space hygiene
// across Split generations, and the distributed lock under link faults.
//
// Tests honoring MM_FAULT_SEED are swept over several seeds by the CI
// flake-hunter lane; determinism assertions must hold for every seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "mm/comm/communicator.h"
#include "mm/comm/dlock.h"
#include "mm/comm/launch.h"
#include "mm/sim/cluster.h"
#include "mm/sim/fault.h"
#include "mm/sim/network.h"
#include "mm/util/yaml.h"

namespace mm {
namespace {

std::uint64_t FaultSeed() {
  const char* env = std::getenv("MM_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

TEST(FaultDraw, DeterministicAndDecorrelated) {
  const std::uint64_t seed = FaultSeed();
  double a = sim::FaultDraw(seed, 3, 17, 0xd0);
  EXPECT_EQ(a, sim::FaultDraw(seed, 3, 17, 0xd0));  // pure function
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, 1.0);
  // Different salts give independent fault classes for the same op.
  EXPECT_NE(a, sim::FaultDraw(seed, 3, 17, 0xdd));
  EXPECT_NE(a, sim::FaultDraw(seed + 1, 3, 17, 0xd0));
}

TEST(NetFaultYaml, ParsesNetAndKill) {
  auto root = yaml::Parse(
      "seed: 9\n"
      "net:\n"
      "  drop_rate: 0.25\n"
      "  dup_rate: 0.5\n"
      "  delay_spike_rate: 0.1\n"
      "  delay_spike_factor: 12\n"
      "  partition:\n"
      "    boundary: 2\n"
      "    start_s: 1.0\n"
      "    heal_s: 2.5\n"
      "kill:\n"
      "  rank: 3\n"
      "  after_comm_ops: 100\n");
  ASSERT_TRUE(root.ok());
  auto cfg = sim::FaultConfig::FromYaml(*root);
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  EXPECT_EQ(cfg->seed, 9u);
  EXPECT_EQ(cfg->net.drop_rate, 0.25);
  EXPECT_EQ(cfg->net.dup_rate, 0.5);
  EXPECT_EQ(cfg->net.delay_spike_factor, 12.0);
  EXPECT_EQ(cfg->net.partition_boundary, 2u);
  EXPECT_EQ(cfg->net.partition_heal_s, 2.5);
  EXPECT_TRUE(cfg->net.any());
  EXPECT_EQ(cfg->kill.rank, 3);
  EXPECT_EQ(cfg->kill.after_comm_ops, 100u);
  EXPECT_TRUE(cfg->kill.any());
}

TEST(NetFaultYaml, RejectsUnknownKeysAtEveryLevel) {
  // The classic typo must fail loudly, not silently disable the plan.
  auto typo = yaml::Parse("nvme:\n  transient_errror_rate: 0.1\n");
  ASSERT_TRUE(typo.ok());
  auto cfg = sim::FaultConfig::FromYaml(*typo);
  ASSERT_FALSE(cfg.ok());
  EXPECT_EQ(cfg.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cfg.status().message().find("transient_errror_rate"),
            std::string::npos);

  auto top = yaml::Parse("sseed: 1\n");
  ASSERT_TRUE(top.ok());
  EXPECT_FALSE(sim::FaultConfig::FromYaml(*top).ok());

  auto net = yaml::Parse("net:\n  drop_rte: 0.1\n");
  ASSERT_TRUE(net.ok());
  EXPECT_FALSE(sim::FaultConfig::FromYaml(*net).ok());

  auto part = yaml::Parse(
      "net:\n  partition:\n    boundary: 1\n    begin_s: 0.5\n");
  ASSERT_TRUE(part.ok());
  EXPECT_FALSE(sim::FaultConfig::FromYaml(*part).ok());
}

TEST(NetFaultYaml, RejectsPartitionThatNeverHeals) {
  auto root = yaml::Parse(
      "net:\n  partition:\n    boundary: 1\n    start_s: 1.0\n    heal_s: 1.0\n");
  ASSERT_TRUE(root.ok());
  auto cfg = sim::FaultConfig::FromYaml(*root);
  ASSERT_FALSE(cfg.ok());
  EXPECT_NE(cfg.status().message().find("heal_s must be > start_s"),
            std::string::npos);
}

TEST(NetworkFaults, DropRetransmissionsAreDeterministic) {
  auto run = [](std::uint64_t seed) {
    sim::Network net(2, sim::NetworkSpec::Roce40());
    sim::NetFaultSpec spec;
    spec.drop_rate = 0.5;
    net.ConfigureFaults(spec, seed);
    std::vector<sim::SimTime> delivered;
    for (int i = 0; i < 64; ++i) {
      auto res = net.Transfer(0.0, 0, 1, 64);
      delivered.push_back(res.delivered);
    }
    return std::make_pair(delivered, net.retransmits());
  };
  auto [d1, r1] = run(FaultSeed());
  auto [d2, r2] = run(FaultSeed());
  EXPECT_EQ(d1, d2);  // bit-identical across runs
  EXPECT_EQ(r1, r2);
  EXPECT_GT(r1, 0u);  // at ~50% drop some of 64 messages retransmit
  auto [d3, r3] = run(FaultSeed() + 1);
  EXPECT_NE(d1, d3);  // a different seed draws a different sequence
  (void)r3;  // only the delivery times matter for the cross-seed check
}

TEST(NetworkFaults, DelaySpikeStretchesPropagation) {
  sim::NetworkSpec ns = sim::NetworkSpec::Roce40();
  sim::Network net(2, ns);
  sim::NetFaultSpec spec;
  spec.delay_spike_rate = 1.0;
  spec.delay_spike_factor = 10.0;
  net.ConfigureFaults(spec, FaultSeed());
  auto res = net.Transfer(0.0, 0, 1, 64);
  // Control message: latency + wire, with latency scaled by the spike.
  double wire = 64.0 / ns.bandwidth_Bps;
  EXPECT_GE(res.delivered, 10.0 * ns.latency_s + wire);
  EXPECT_EQ(net.delay_spikes(), 1u);
  // Intra-node messages never take link faults.
  (void)net.Transfer(0.0, 1, 1, 64);
  EXPECT_EQ(net.delay_spikes(), 1u);
}

TEST(NetworkFaults, PartitionHoldsUntilHeal) {
  sim::Network net(3, sim::NetworkSpec::Roce40());
  sim::NetFaultSpec spec;
  spec.partition_boundary = 1;  // {0} | {1, 2}
  spec.partition_start_s = 0.0;
  spec.partition_heal_s = 0.01;
  net.ConfigureFaults(spec, FaultSeed());
  EXPECT_TRUE(net.Partitioned(0.005, 0, 1));
  EXPECT_FALSE(net.Partitioned(0.005, 1, 2));  // same side of the cut
  EXPECT_FALSE(net.Partitioned(0.02, 0, 1));   // healed

  auto held = net.Transfer(0.0, 0, 1, 64);
  EXPECT_GE(held.delivered, spec.partition_heal_s);
  EXPECT_GT(net.partition_holds(), 0u);
  auto same_side = net.Transfer(0.0, 1, 2, 64);
  EXPECT_LT(same_side.delivered, 0.001);
  auto after = net.Transfer(0.02, 0, 1, 64);
  EXPECT_LT(after.delivered, 0.021);
}

TEST(NetworkFaults, DuplicatesAreDroppedBySequenceDedup) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  sim::NetFaultSpec spec;
  spec.dup_rate = 1.0;  // every message delivered twice
  cluster->network().ConfigureFaults(spec, FaultSeed());
  constexpr int kMsgs = 5;
  auto result = comm::RunRanks(*cluster, 2, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    if (ctx.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        comm.SendValue<int>(1, /*tag=*/7, 1000 + i);
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(comm.RecvValue<int>(0, /*tag=*/7), 1000 + i);  // in order
      }
    }
    // World barrier is message-free; it just orders the checks below after
    // every duplicate deposit.
    comm.Barrier();
    if (ctx.rank() == 1) {
      // Exactly-once: the duplicate copies were dropped, not queued.
      EXPECT_FALSE(ctx.world().mailbox(1).Probe(comm::kAnySource, 7));
      EXPECT_EQ(ctx.world().mailbox(1).dups_dropped(),
                static_cast<std::uint64_t>(kMsgs));
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(cluster->network().duplicates(), static_cast<std::uint64_t>(kMsgs));
}

TEST(NetworkFaults, CollectivesAreBitIdenticalAcrossRuns) {
  auto run = [] {
    auto cluster = sim::Cluster::PaperTestbed(2);
    sim::NetFaultSpec spec;
    spec.drop_rate = 0.5;
    spec.dup_rate = 0.2;
    spec.delay_spike_rate = 0.1;
    cluster->network().ConfigureFaults(spec, FaultSeed());
    std::vector<double> finals(8, 0.0);
    auto result = comm::RunRanks(*cluster, 8, 4, [&](comm::RankContext& ctx) {
      comm::Communicator comm(&ctx);
      std::vector<double> v = {static_cast<double>(ctx.rank() + 1)};
      for (int iter = 0; iter < 8; ++iter) {
        comm.AllReduce(v, [](double a, double b) { return a + b; });
      }
      finals[static_cast<std::size_t>(ctx.rank())] = v[0];
    });
    EXPECT_TRUE(result.ok()) << result.error;
    return std::make_tuple(finals, result.rank_times,
                           cluster->network().retransmits());
  };
  auto [f1, t1, r1] = run();
  auto [f2, t2, r2] = run();
  EXPECT_EQ(f1, f2);  // results bit-identical
  EXPECT_EQ(t1, t2);  // virtual timings bit-identical
  EXPECT_EQ(r1, r2);  // same injected fault sequence
  EXPECT_GT(r1, 0u);
  // Faults cost time but never correctness.
  double expect = 36.0;
  for (int i = 1; i < 8; ++i) expect *= 8.0;
  EXPECT_EQ(f1[0], expect);
}

TEST(CommTags, UserTagWiderThan16BitsIsRejected) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  auto result = comm::RunRanks(*cluster, 2, 2, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    if (ctx.rank() == 0) {
      int v = 1;
      comm.SendBytes(1, /*tag=*/0x10000, &v, sizeof(v));  // would collide
    }
  });
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("comm tag"), std::string::npos);
}

TEST(CommTags, SplitGenerationsKeepTagSpacesDisjoint) {
  // Regression: the same user tag on the parent and on a Split
  // sub-communicator must never match each other's receives.
  auto cluster = sim::Cluster::PaperTestbed(1);
  auto result = comm::RunRanks(*cluster, 2, 2, [&](comm::RankContext& ctx) {
    comm::Communicator world(&ctx);
    comm::Communicator sub = world.Split(0);  // both ranks, epoch 1
    constexpr int kTag = 5;
    if (ctx.rank() == 0) {
      world.SendValue<int>(1, kTag, 111);  // deposited first
      sub.SendValue<int>(1, kTag, 222);
    } else {
      // If the tag spaces collided, this would take the world message.
      EXPECT_EQ(sub.RecvValue<int>(0, kTag), 222);
      EXPECT_EQ(world.RecvValue<int>(0, kTag), 111);
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST(CommTags, CollectivesWorkOnDeepSplitGenerations) {
  // Collective tags are epoch-scoped too: a chain of Splits must keep
  // working (each generation shifts its tag space).
  auto cluster = sim::Cluster::PaperTestbed(1);
  auto result = comm::RunRanks(*cluster, 4, 4, [&](comm::RankContext& ctx) {
    comm::Communicator world(&ctx);
    comm::Communicator gen1 = world.Split(ctx.rank() % 2);
    comm::Communicator gen2 = gen1.Split(0);
    std::vector<int> v = {ctx.rank() + 1};
    gen2.AllReduce(v, [](int a, int b) { return a + b; });
    int expect = ctx.rank() % 2 == 0 ? (1 + 3) : (2 + 4);
    EXPECT_EQ(v[0], expect);
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST(RecvOr, MalformedPayloadDegradesToDataLoss) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  auto result = comm::RunRanks(*cluster, 2, 2, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    if (ctx.rank() == 0) {
      std::uint8_t bytes[3] = {1, 2, 3};
      comm.SendBytes(1, /*tag=*/1, bytes, sizeof(bytes));
      comm.SendBytes(1, /*tag=*/2, bytes, 2);
    } else {
      auto vec = comm.RecvOr<int>(0, /*tag=*/1);  // 3 bytes: not whole ints
      ASSERT_FALSE(vec.ok());
      EXPECT_EQ(vec.status().code(), StatusCode::kDataLoss);
      auto val = comm.RecvValueOr<int>(0, /*tag=*/2);  // 2 bytes != 4
      ASSERT_FALSE(val.ok());
      EXPECT_EQ(val.status().code(), StatusCode::kDataLoss);
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST(DlockFaults, MutualExclusionHoldsUnderLinkFaults) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  sim::NetFaultSpec spec;
  spec.drop_rate = 0.2;
  spec.dup_rate = 0.2;
  spec.delay_spike_rate = 0.2;
  cluster->network().ConfigureFaults(spec, FaultSeed());
  constexpr int kRanks = 8;
  constexpr int kIters = 25;
  int counter = 0;  // deliberately unsynchronized; the dlock protects it
  // One lock shared by every rank: a lock per rank would exclude nothing.
  comm::DistributedLock lock(cluster.get(), /*home_node=*/0);
  auto result = comm::RunRanks(*cluster, kRanks, 4, [&](comm::RankContext& ctx) {
    for (int i = 0; i < kIters; ++i) {
      comm::DistributedLock::Guard guard(lock, ctx);
      ++counter;
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(counter, kRanks * kIters);
  // The lock protocol's control messages took drops/spikes on the way.
  EXPECT_GT(cluster->network().retransmits() + cluster->network().delay_spikes(),
            0u);
}

}  // namespace
}  // namespace mm
