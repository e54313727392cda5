#include "mm/storage/buffer_manager.h"

#include <gtest/gtest.h>

#include "mm/sim/cluster.h"
#include "mm/util/byte_units.h"
#include "mm/util/rng.h"

namespace mm::storage {
namespace {

using sim::TierKind;

class BufferManagerTest : public ::testing::Test {
 protected:
  BufferManagerTest() : cluster_(sim::Cluster::PaperTestbed(1)) {
    grants_ = {{TierKind::kDram, MEGABYTES(1)},
               {TierKind::kNvme, MEGABYTES(2)},
               {TierKind::kHdd, MEGABYTES(4)}};
    bm_ = std::make_unique<BufferManager>(&cluster_->node(0), grants_);
  }

  static std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t fill) {
    return std::vector<std::uint8_t>(n, fill);
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::vector<TierGrant> grants_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_F(BufferManagerTest, PlacesInFastestTierFirst) {
  auto t = bm_->PutScored(BlobId{1, 0}, Bytes(1000, 1), 0.5f, 0.0, nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0u);  // DRAM
  EXPECT_EQ(bm_->tier(0).used(), 1000u);
}

TEST_F(BufferManagerTest, SpillsToNextTierWhenFull) {
  // Fill DRAM with equally-scored pages; next put cascades the demotion of
  // equal-score victims is NOT allowed (score must be strictly lower), so
  // the new page lands in NVMe.
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(MEGABYTES(1), 1), 0.5f, 0.0, nullptr)
          .ok());
  auto t = bm_->PutScored(BlobId{1, 1}, Bytes(1000, 2), 0.5f, 0.0, nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 1u);  // NVMe
}

TEST_F(BufferManagerTest, HigherScoreDemotesLowerScore) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(MEGABYTES(1), 1), 0.2f, 0.0, nullptr)
          .ok());
  // A higher-score page forces the resident one down to NVMe.
  auto t = bm_->PutScored(BlobId{1, 1}, Bytes(MEGABYTES(1), 2), 0.9f, 0.0,
                          nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0u);
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 0}), std::make_optional<std::size_t>(1));
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 1}), std::make_optional<std::size_t>(0));
}

TEST_F(BufferManagerTest, CascadingDemotionThroughThreeTiers) {
  // Fill DRAM (1M) and NVMe (2M) with low-score data.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bm_->PutScored(BlobId{1, static_cast<std::uint64_t>(i)},
                               Bytes(MEGABYTES(1), 1), 0.1f, 0.0, nullptr)
                    .ok());
  }
  EXPECT_EQ(bm_->tier(0).used() + bm_->tier(1).used(), MEGABYTES(3));
  // A high-score 1M page pushes one page out of DRAM into NVMe, which in
  // turn pushes a page into HDD.
  auto t = bm_->PutScored(BlobId{2, 0}, Bytes(MEGABYTES(1), 9), 0.9f, 0.0,
                          nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0u);
  EXPECT_EQ(bm_->tier(2).used(), MEGABYTES(1));  // something reached HDD
  // Nothing lost: all four blobs resident somewhere.
  EXPECT_TRUE(bm_->FindBlob(BlobId{1, 0}).has_value());
  EXPECT_TRUE(bm_->FindBlob(BlobId{1, 1}).has_value());
  EXPECT_TRUE(bm_->FindBlob(BlobId{1, 2}).has_value());
  EXPECT_TRUE(bm_->FindBlob(BlobId{2, 0}).has_value());
}

TEST_F(BufferManagerTest, ExhaustionReportedWhenAllTiersFull) {
  // Total capacity is 7M of high-score data; the 8th put must fail.
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(bm_->PutScored(BlobId{1, static_cast<std::uint64_t>(i)},
                               Bytes(MEGABYTES(1), 1), 0.9f, 0.0, nullptr)
                    .ok());
  }
  auto st = bm_->PutScored(BlobId{2, 0}, Bytes(MEGABYTES(1), 1), 0.9f, 0.0,
                           nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BufferManagerTest, GetFindsBlobInAnyTier) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(MEGABYTES(1), 7), 0.9f, 0.0, nullptr)
          .ok());
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 1}, Bytes(MEGABYTES(1), 8), 0.95f, 0.0, nullptr)
          .ok());
  // Blob 0 got demoted; GetInto must still find it.
  std::vector<std::uint8_t> data;
  ASSERT_TRUE(bm_->GetInto(BlobId{1, 0}, &data, 0.0, nullptr).ok());
  EXPECT_EQ(data[0], 7);
  EXPECT_EQ(bm_->GetInto(BlobId{9, 9}, &data, 0.0, nullptr).code(),
            StatusCode::kNotFound);
}

TEST_F(BufferManagerTest, PartialUpdateInPlace) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(4096, 0), 0.5f, 0.0, nullptr).ok());
  ASSERT_TRUE(bm_->PutPartial(BlobId{1, 0}, 10, Bytes(5, 0xEE), 0.0, nullptr)
                  .ok());
  std::vector<std::uint8_t> page;
  ASSERT_TRUE(bm_->GetInto(BlobId{1, 0}, &page, 0.0, nullptr).ok());
  EXPECT_EQ(page[9], 0);
  EXPECT_EQ(page[10], 0xEE);
  EXPECT_EQ(page[14], 0xEE);
  EXPECT_EQ(page[15], 0);
}

TEST_F(BufferManagerTest, RebalancePromotesHighScoreBlobs) {
  // Land a page in NVMe by filling DRAM, then free DRAM and rebalance.
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(MEGABYTES(1), 1), 0.9f, 0.0, nullptr)
          .ok());
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 1}, Bytes(1000, 2), 0.8f, 0.0, nullptr).ok());
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 1}), std::make_optional<std::size_t>(1));
  ASSERT_TRUE(bm_->Erase(BlobId{1, 0}).ok());
  sim::SimTime done = 0;
  int moved = bm_->Rebalance(0.0, &done);
  EXPECT_GE(moved, 1);
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 1}), std::make_optional<std::size_t>(0));
}

TEST_F(BufferManagerTest, RebalanceLeavesZeroScoreBlobsDown) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(1000, 1), 0.0f, 0.0, nullptr).ok());
  // Zero-score blob placed in DRAM initially (room available)...
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 0}), std::make_optional<std::size_t>(0));
  // ...but once demoted it is not promoted back.
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 1}, Bytes(MEGABYTES(1), 2), 0.9f, 0.0, nullptr)
          .ok());
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 0}), std::make_optional<std::size_t>(1));
  ASSERT_TRUE(bm_->Erase(BlobId{1, 1}).ok());
  bm_->Rebalance(0.0, nullptr);
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 0}), std::make_optional<std::size_t>(1));
}

// Rebalance only fills free space above a tier; these pin down that it
// moves exactly the blobs that fit, highest score first, and nothing else.
TEST_F(BufferManagerTest, RebalanceMovesNothingWhenTiersAboveAreFull) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(MEGABYTES(1), 1), 0.9f, 0.0, nullptr)
          .ok());
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 1}, Bytes(MEGABYTES(2), 2), 0.8f, 0.0, nullptr)
          .ok());
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 2}, Bytes(1000, 3), 0.7f, 0.0, nullptr).ok());
  ASSERT_EQ(bm_->FindBlob(BlobId{1, 2}), std::make_optional<std::size_t>(2));
  bm_->SetScores(1, {{2, 0.99f}});  // outranks everything above it
  EXPECT_EQ(bm_->Rebalance(0.0, nullptr), 0);
  const float want[] = {0.9f, 0.8f, 0.99f};
  for (std::uint64_t p = 0; p < 3; ++p) {
    EXPECT_EQ(bm_->FindBlob(BlobId{1, p}), std::make_optional<std::size_t>(p));
    EXPECT_FLOAT_EQ(bm_->GetScore(BlobId{1, p}), want[p]);
  }
}

TEST_F(BufferManagerTest, RebalanceWithRoomForOneBlobMovesTheBestOne) {
  BufferManager bm(&cluster_->node(0), {{TierKind::kDram, 6000},
                                        {TierKind::kNvme, MEGABYTES(1)}});
  ASSERT_TRUE(
      bm.PutScored(BlobId{1, 0}, Bytes(6000, 1), 0.9f, 0.0, nullptr).ok());
  const float scores[] = {0.5f, 0.7f, 0.6f};  // pages 1..3
  for (std::uint64_t p = 1; p <= 3; ++p) {
    ASSERT_EQ(*bm.PutScored(BlobId{1, p}, Bytes(4000, 2), scores[p - 1], 0.0,
                            nullptr),
              1u);
  }
  ASSERT_TRUE(bm.Erase(BlobId{1, 0}).ok());  // DRAM room: one 4000 B blob
  EXPECT_EQ(bm.Rebalance(0.0, nullptr), 1);
  EXPECT_EQ(bm.FindBlob(BlobId{1, 2}), std::make_optional<std::size_t>(0));
  EXPECT_EQ(bm.FindBlob(BlobId{1, 1}), std::make_optional<std::size_t>(1));
  EXPECT_EQ(bm.FindBlob(BlobId{1, 3}), std::make_optional<std::size_t>(1));
}

TEST_F(BufferManagerTest, RebalanceSkipsABlobTooLargeForTheRoom) {
  BufferManager bm(&cluster_->node(0), {{TierKind::kDram, 6000},
                                        {TierKind::kNvme, MEGABYTES(1)}});
  ASSERT_TRUE(
      bm.PutScored(BlobId{1, 0}, Bytes(6000, 1), 0.9f, 0.0, nullptr).ok());
  ASSERT_EQ(*bm.PutScored(BlobId{1, 1}, Bytes(5000, 2), 0.8f, 0.0, nullptr),
            1u);
  ASSERT_EQ(*bm.PutScored(BlobId{1, 2}, Bytes(3000, 3), 0.3f, 0.0, nullptr),
            1u);
  ASSERT_TRUE(bm.Erase(BlobId{1, 0}).ok());
  ASSERT_EQ(*bm.PutScored(BlobId{1, 3}, Bytes(2000, 4), 0.95f, 0.0, nullptr),
            0u);  // DRAM room left: 4000 B
  EXPECT_EQ(bm.Rebalance(0.0, nullptr), 1);
  EXPECT_EQ(bm.FindBlob(BlobId{1, 1}), std::make_optional<std::size_t>(1));
  EXPECT_EQ(bm.FindBlob(BlobId{1, 2}), std::make_optional<std::size_t>(0));
}

TEST_F(BufferManagerTest, EstimateReadSecondsReflectsTier) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(1000, 1), 0.9f, 0.0, nullptr).ok());
  double dram_est = bm_->EstimateReadSeconds(BlobId{1, 0}, MEGABYTES(1));
  double absent_est = bm_->EstimateReadSeconds(BlobId{9, 9}, MEGABYTES(1));
  EXPECT_LT(dram_est, absent_est);  // absent pages assume the slowest tier
}

TEST_F(BufferManagerTest, ScoresPersist) {
  // Hints apply in order: the later one for page 3 wins.
  bm_->SetScores(3, {{3, 0.2f}, {5, 0.4f}, {3, 0.7f}});
  EXPECT_FLOAT_EQ(bm_->GetScore(BlobId{3, 3}), 0.7f);
  EXPECT_FLOAT_EQ(bm_->GetScore(BlobId{3, 5}), 0.4f);
  EXPECT_FLOAT_EQ(bm_->GetScore(BlobId{4, 4}), 0.0f);
}

TEST_F(BufferManagerTest, UsedAndCapacityAggregate) {
  EXPECT_EQ(bm_->capacity(), MEGABYTES(7));
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(1234, 1), 0.5f, 0.0, nullptr).ok());
  EXPECT_EQ(bm_->used(), 1234u);
}

TEST_F(BufferManagerTest, GrantMustMatchNodeTiers) {
  std::vector<TierGrant> bad = {{TierKind::kPfs, MEGABYTES(1)}};
  EXPECT_THROW(BufferManager(&cluster_->node(0), bad), std::logic_error);
}

TEST_F(BufferManagerTest, GrantsMustBeSortedFastestFirst) {
  std::vector<TierGrant> bad = {{TierKind::kNvme, MEGABYTES(1)},
                                {TierKind::kDram, MEGABYTES(1)}};
  EXPECT_THROW(BufferManager(&cluster_->node(0), bad), std::logic_error);
}

// Property: under random scored puts, capacity invariants always hold and
// no blob is ever lost.
class BufferManagerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferManagerPropertyTest, NoBlobLostAndCapacityRespected) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  BufferManager bm(&cluster->node(0), {{TierKind::kDram, KIBIBYTES(64)},
                                       {TierKind::kNvme, KIBIBYTES(128)},
                                       {TierKind::kHdd, KIBIBYTES(256)}});
  Rng rng(GetParam());
  std::vector<BlobId> placed;
  for (int i = 0; i < 200; ++i) {
    BlobId id{7, static_cast<std::uint64_t>(i)};
    std::size_t size = 1024 + rng.NextBounded(8192);
    float score = static_cast<float>(rng.NextDouble());
    auto t = bm.PutScored(id, std::vector<std::uint8_t>(size, 1), score, 0.0,
                          nullptr);
    if (t.ok()) {
      placed.push_back(id);
    }
    // Invariant: per-tier usage never exceeds capacity.
    for (std::size_t k = 0; k < bm.num_tiers(); ++k) {
      EXPECT_LE(bm.tier(k).used(), bm.tier(k).capacity());
    }
  }
  EXPECT_GT(placed.size(), 10u);
  for (const BlobId& id : placed) {
    EXPECT_TRUE(bm.FindBlob(id).has_value()) << id.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferManagerPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace mm::storage
