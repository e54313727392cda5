// Service-level tests: vector registry, task routing, organizer wiring,
// ownership/placement, phases, YAML options.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "mm/mega_mmap.h"

namespace mm::core {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = sim::Cluster::PaperTestbed(4);
    ServiceOptions so;
    so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(4)},
                      {sim::TierKind::kNvme, MEGABYTES(16)}};
    svc_ = std::make_unique<Service>(cluster_.get(), so);
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<Service> svc_;
};

TEST_F(ServiceTest, RegisterVectorIsIdempotent) {
  VectorOptions vo;
  vo.nonvolatile = false;
  auto a = svc_->RegisterVector("vec", 8, vo, 100);
  auto b = svc_->RegisterVector("vec", 8, vo, 100);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ((*a)->num_elements(), 100u);
}

TEST_F(ServiceTest, RegisterVectorRejectsElementSizeMismatch) {
  VectorOptions vo;
  vo.nonvolatile = false;
  ASSERT_TRUE(svc_->RegisterVector("vec", 8, vo, 100).ok());
  EXPECT_FALSE(svc_->RegisterVector("vec", 4, vo, 100).ok());
}

TEST_F(ServiceTest, FindVectorByKeyAndId) {
  VectorOptions vo;
  vo.nonvolatile = false;
  auto meta = svc_->RegisterVector("lookup_me", 8, vo, 10);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(svc_->FindVector("lookup_me"), *meta);
  EXPECT_EQ(svc_->FindVectorById((*meta)->vector_id), *meta);
  EXPECT_EQ(svc_->FindVector("nope"), nullptr);
  EXPECT_EQ(svc_->FindVectorById(12345), nullptr);
}

TEST_F(ServiceTest, PageBytesRoundedToWholeElements) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 1000;  // not a multiple of 24
  auto meta = svc_->RegisterVector("rounded", 24, vo, 100);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ((*meta)->page_bytes % 24, 0u);
  EXPECT_LE((*meta)->page_bytes, 1000u);
  EXPECT_EQ((*meta)->elems_per_page(), 41u);
}

TEST_F(ServiceTest, DefaultOwnerUsesPgasHint) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 64;  // 8 elements per page
  auto meta = svc_->RegisterVector("hinted", 8, vo, 64);
  ASSERT_TRUE(meta.ok());
  // 8 ranks over 4 nodes (2 per node), 64 elements -> 8 per rank, exactly
  // one page per rank.
  svc_->SetPgasHint(**meta, VectorMeta::PgasHint{64, 8, 2});
  for (std::uint64_t page = 0; page < 8; ++page) {
    storage::BlobId id{(*meta)->vector_id, page};
    EXPECT_EQ(svc_->DefaultOwner(**meta, id), page / 2) << "page " << page;
  }
  // Pages past the hinted size fall back to home-node hashing.
  storage::BlobId beyond{(*meta)->vector_id, 99};
  EXPECT_EQ(svc_->DefaultOwner(**meta, beyond),
            svc_->metadata().HomeNode(beyond));
}

TEST_F(ServiceTest, DefaultOwnerWithoutHintIsHomeNode) {
  VectorOptions vo;
  vo.nonvolatile = false;
  auto meta = svc_->RegisterVector("unhinted", 8, vo, 100);
  storage::BlobId id{(*meta)->vector_id, 3};
  EXPECT_EQ(svc_->DefaultOwner(**meta, id), svc_->metadata().HomeNode(id));
}

TEST_F(ServiceTest, WriteThenReadThroughTasks) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 4096;
  auto meta = svc_->RegisterVector("taskio", 1, vo, 8192);
  ASSERT_TRUE(meta.ok());
  std::vector<std::uint8_t> bytes(100, 0x5A);
  auto fut = svc_->WriteRegion(**meta, /*page=*/1, /*offset=*/50, bytes,
                               /*from_node=*/0, /*now=*/0.0);
  TaskOutcome outcome = fut.get();
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.version, 1u);
  sim::SimTime done = 0;
  auto page = svc_->ReadPage(**meta, 1, /*from_node=*/2, outcome.done, &done);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)[49], 0);
  EXPECT_EQ((*page)[50], 0x5A);
  EXPECT_EQ((*page)[149], 0x5A);
  EXPECT_GT(done, 0.0);
}

TEST_F(ServiceTest, VersionsIncrementPerCommit) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 4096;
  auto meta = svc_->RegisterVector("versioned", 1, vo, 4096);
  std::vector<std::uint8_t> bytes(10, 1);
  for (std::uint64_t expect = 1; expect <= 3; ++expect) {
    auto outcome =
        svc_->WriteRegion(**meta, 0, 0, bytes, 0, 0.0).get();
    ASSERT_TRUE(outcome.status.ok());
    EXPECT_EQ(outcome.version, expect);
    if (expect == 1) {
      // First commit materializes the page: the base version is unknowable
      // (reported as ~0 so writer frames never falsely adopt it).
      EXPECT_EQ(outcome.prev_version, ~0ULL);
    } else {
      EXPECT_EQ(outcome.prev_version, expect - 1);
    }
  }
  auto loc = svc_->metadata().Lookup({(*meta)->vector_id, 0}, 0, 0.0, nullptr);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->version, 3u);
}

TEST_F(ServiceTest, ScoresReachTheOrganizer) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 4096;
  auto meta = svc_->RegisterVector("scored", 1, vo, 4096);
  std::vector<std::uint8_t> bytes(10, 1);
  auto outcome = svc_->WriteRegion(**meta, 0, 0, bytes, 0, 0.0).get();
  ASSERT_TRUE(outcome.status.ok());
  auto loc = svc_->metadata().Lookup({(*meta)->vector_id, 0}, 0, 0.0, nullptr);
  ASSERT_TRUE(loc.ok());
  std::size_t owner = loc->node;
  svc_->SubmitScores(**meta, {{0, 0.77f}}, 0, 0.0);
  // Scores are async: poll the owner's buffer manager (real time).
  storage::BlobId id{(*meta)->vector_id, 0};
  float score = 0;
  for (int i = 0; i < 200; ++i) {
    score = svc_->runtime(owner).buffer().GetScore(id);
    if (score == 0.77f) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FLOAT_EQ(score, 0.77f);
}

// ---- Data Organizer hints: order and sweep cadence ----

// One node, a volatile vector of `pages` 4 KiB pages, each placed by a
// commit from node 0.
class ScoreHintTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kPage = 4096;

  void Start(ServiceOptions so, std::uint64_t pages) {
    cluster_ = sim::Cluster::PaperTestbed(1);
    svc_ = std::make_unique<Service>(cluster_.get(), so);
    VectorOptions vo;
    vo.nonvolatile = false;
    vo.page_size = kPage;
    auto meta = svc_->RegisterVector("hinted", 1, vo, pages * kPage);
    ASSERT_TRUE(meta.ok());
    meta_ = *meta;
    std::vector<std::uint8_t> bytes(10, 1);
    for (std::uint64_t p = 0; p < pages; ++p) {
      ASSERT_TRUE(svc_->WriteRegion(*meta_, p, 0, bytes, 0, 0.0)
                      .get()
                      .status.ok());
    }
  }

  storage::BlobId Id(std::uint64_t page) const {
    return storage::BlobId{meta_->vector_id, page};
  }

  std::uint64_t Promotions() {
    return svc_->metrics(0).GetCounter("mm.tier.promotion_count")->value();
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<Service> svc_;
  VectorMeta* meta_ = nullptr;
};

// Batches from one source share a queue, so a page's hints apply in the
// order that source sent them, even with two low-latency workers. Odd
// repetitions lead the first batch with many hints for another page: it
// then runs long, and routing by a batch's first page would let the second
// batch overtake it on the other queue.
TEST_F(ScoreHintTest, HintsFromOneSourceStayFifo) {
  ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(1)}};
  so.low_latency_workers = 2;
  constexpr std::uint64_t kPages = 8;
  Start(so, kPages);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<storage::ScoreHint> first;
    if (rep % 2 == 1) {
      const std::uint64_t lead = 1 + rep % (kPages - 1);
      first.assign(2000, storage::ScoreHint{lead, 0.5f});
    }
    first.push_back({0, 1.0f});
    svc_->SubmitScores(*meta_, first, 0, 0.0);
    svc_->SubmitScores(*meta_, {{0, 0.0f}}, 0, 0.0);
    svc_->runtime(0).Quiesce(0.0);
    ASSERT_FLOAT_EQ(svc_->runtime(0).buffer().GetScore(Id(0)), 0.0f)
        << "repetition " << rep;
  }
}

// The sweep cadence counts hints, not batches. DRAM is left with room for
// exactly one page while pages 1 and 2 wait on NVMe, so a sweep shows as
// exactly one promotion.
class SweepCadenceTest : public ScoreHintTest {
 protected:
  void SetUp() override {
    ServiceOptions so;
    so.tier_grants = {{sim::TierKind::kDram, kPage + kPage / 2},
                      {sim::TierKind::kNvme, MEGABYTES(1)}};
    Start(so, 3);  // page 0 fills DRAM; pages 1 and 2 land on NVMe
    storage::BufferManager& bm = svc_->runtime(0).buffer();
    ASSERT_EQ(bm.FindBlob(Id(1)), std::make_optional<std::size_t>(1));
    ASSERT_EQ(bm.FindBlob(Id(2)), std::make_optional<std::size_t>(1));
    ASSERT_TRUE(bm.Erase(Id(0)).ok());  // room for one page in DRAM
  }

  void Hint(std::size_t count) {
    svc_->SubmitScores(
        *meta_, std::vector<storage::ScoreHint>(count, {1, 0.9f}), 0, 0.0);
    svc_->runtime(0).Quiesce(0.0);
  }

  std::size_t InDram() {
    storage::BufferManager& bm = svc_->runtime(0).buffer();
    return (bm.FindBlob(Id(1)) == std::make_optional<std::size_t>(0)) +
           (bm.FindBlob(Id(2)) == std::make_optional<std::size_t>(0));
  }
};

TEST_F(SweepCadenceTest, SixtyThreeHintsSweepNothingAndTheNextOneSweeps) {
  Hint(63);
  EXPECT_EQ(Promotions(), 0u);
  EXPECT_EQ(InDram(), 0u);
  Hint(1);  // the 64th hint, in a batch of its own
  EXPECT_EQ(Promotions(), 1u);
  EXPECT_EQ(InDram(), 1u);
}

TEST_F(SweepCadenceTest, SixtyFourHintsInOneBatchSweepOnce) {
  Hint(64);
  EXPECT_EQ(Promotions(), 1u);
  EXPECT_EQ(InDram(), 1u);
}

TEST_F(ServiceTest, ChangePhaseDropsReplicas) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 4096;
  vo.mode = CoherenceMode::kReadOnlyGlobal;
  auto meta = svc_->RegisterVector("phased", 1, vo, 4096);
  std::vector<std::uint8_t> bytes(4096, 7);
  // Place the page on node 0, then read it from node 2 (replicates).
  auto outcome = svc_->WriteRegion(**meta, 0, 0, bytes, 0, 0.0).get();
  ASSERT_TRUE(outcome.status.ok());
  sim::SimTime done = 0;
  ASSERT_TRUE(svc_->ReadPage(**meta, 0, 2, outcome.done, &done).ok());
  storage::BlobId id{(*meta)->vector_id, 0};
  EXPECT_FALSE(svc_->metadata().Replicas(id, 0, 0.0, nullptr).empty());
  ASSERT_TRUE(
      svc_->ChangePhase(**meta, CoherenceMode::kWriteOnlyGlobal, 0, done,
                        nullptr)
          .ok());
  EXPECT_TRUE(svc_->metadata().Replicas(id, 0, 0.0, nullptr).empty());
}

TEST_F(ServiceTest, DestroyIsIdempotent) {
  VectorOptions vo;
  vo.nonvolatile = false;
  auto meta = svc_->RegisterVector("bye", 1, vo, 4096);
  std::vector<std::uint8_t> bytes(10, 1);
  // Write outcome is irrelevant; the test exercises DestroyVector below.
  (void)svc_->WriteRegion(**meta, 0, 0, bytes, 0, 0.0).get();
  EXPECT_TRUE(svc_->DestroyVector(**meta).ok());
  EXPECT_TRUE(svc_->DestroyVector(**meta).ok());
  EXPECT_EQ(svc_->metadata().BlobsOfVector((*meta)->vector_id).size(), 0u);
}

TEST_F(ServiceTest, RequiresTierGrants) {
  ServiceOptions so;  // empty grants
  EXPECT_THROW(Service bad(cluster_.get(), so), std::logic_error);
}

TEST_F(ServiceTest, ScacheDramReservedAgainstNodeBudget) {
  // The fixture service granted 4 MB DRAM on each node.
  for (std::size_t n = 0; n < cluster_->num_nodes(); ++n) {
    EXPECT_GE(cluster_->node(n).dram_used(), MEGABYTES(4));
  }
  std::uint64_t before = cluster_->node(0).dram_used();
  svc_->Shutdown();
  EXPECT_EQ(cluster_->node(0).dram_used(), before - MEGABYTES(4));
}

// Shutdown racing in-flight Submit()s (run under TSan in CI): every awaited
// task's promise must be fulfilled — accepted tasks complete, rejected ones
// carry kFailedPrecondition — and no submitter may hang or crash.
TEST_F(ServiceTest, ShutdownVsInflightSubmitFulfillsEveryPromise) {
  VectorOptions vo;
  vo.nonvolatile = false;
  auto meta = svc_->RegisterVector("race", sizeof(double), vo, 4096);
  ASSERT_TRUE(meta.ok());
  std::vector<std::uint8_t> bytes(64, 7);
  constexpr int kSubmitters = 4, kPerThread = 50;
  std::atomic<int> resolved{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto fut = svc_->WriteRegion(**meta, 0, (t * kPerThread + i) % 256,
                                     bytes, 0, 0.0);
        TaskOutcome out = fut.get();  // must never hang
        EXPECT_TRUE(out.status.ok() ||
                    out.status.code() == StatusCode::kFailedPrecondition)
            << out.status.ToString();
        resolved.fetch_add(1);
      }
    });
  }
  svc_->Shutdown();
  for (auto& t : submitters) t.join();
  EXPECT_EQ(resolved.load(), kSubmitters * kPerThread);
}

// ---- commit branches: in place, materialized, written through ----

class CommitPathTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kPage = 4096;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_commit_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    cluster_ = sim::Cluster::PaperTestbed(1);
  }
  void TearDown() override {
    svc_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// One node whose only scache tier is `scache_bytes` of DRAM.
  void Start(std::uint64_t scache_bytes, bool with_ckpt) {
    ServiceOptions so;
    so.tier_grants = {{sim::TierKind::kDram, scache_bytes}};
    if (with_ckpt) so.ckpt.dir = (dir_ / "ckpt").string();
    svc_ = std::make_unique<Service>(cluster_.get(), so);
  }

  VectorMeta* Register(bool nonvolatile) {
    VectorOptions vo;
    vo.page_size = kPage;
    vo.nonvolatile = nonvolatile;
    auto meta = svc_->RegisterVector(
        "posix://" + (dir_ / "v.bin").string(), 1, vo, 2 * kPage);
    EXPECT_TRUE(meta.ok()) << meta.status().ToString();
    return meta.ok() ? *meta : nullptr;
  }

  storage::BlobLocation Entry(VectorMeta& meta, std::uint64_t page) {
    auto loc = svc_->metadata().Lookup({meta.vector_id, page}, 0, 0.0,
                                       nullptr);
    EXPECT_TRUE(loc.ok());
    return loc.ok() ? *loc : storage::BlobLocation{};
  }

  std::filesystem::path dir_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<Service> svc_;
};

TEST_F(CommitPathTest, FullScacheWritesNonvolatilePageThrough) {
  Start(/*scache_bytes=*/1024, /*with_ckpt=*/true);  // smaller than a page
  VectorMeta* meta = Register(/*nonvolatile=*/true);
  ASSERT_NE(meta, nullptr);
  std::vector<std::uint8_t> bytes(100, 0x5A);
  TaskOutcome out = svc_->WriteRegion(*meta, 1, 50, bytes, 0, 0.0).get();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.version, 1u);
  // A clean kPfs entry at the committed version, carrying the page CRC.
  storage::BlobLocation loc = Entry(*meta, 1);
  EXPECT_EQ(loc.tier, sim::TierKind::kPfs);
  EXPECT_FALSE(loc.dirty);
  EXPECT_EQ(loc.version, 1u);
  std::vector<std::uint8_t> expected(kPage, 0);
  std::copy(bytes.begin(), bytes.end(), expected.begin() + 50);
  EXPECT_EQ(loc.crc, Crc32(expected));
  // The write-through is the page's only durable copy: it is journaled
  // under the committed version.
  auto rec = svc_->journal(loc.node)->Latest({meta->vector_id, 1});
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(rec->page_crc, loc.crc);
  EXPECT_EQ(rec->offset, kPage);
  EXPECT_EQ(rec->payload, expected);
  // A later fault stages the page in and verifies it against that CRC.
  // The scache cannot hold it, so it is served through at the committed
  // version.
  std::uint64_t version = 0;
  auto page = svc_->ReadPage(*meta, 1, 0, out.done, nullptr, &version);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(*page, expected);
  EXPECT_EQ(version, 1u);
  // Verified, not trusted: a backend page that no longer matches the
  // recorded CRC is typed data loss.
  {
    std::fstream f(dir_ / "v.bin",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(kPage + 60));
    f.put(static_cast<char>(0x00));
  }
  auto torn = svc_->ReadPage(*meta, 1, 0, out.done, nullptr);
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);
}

TEST_F(CommitPathTest, FullScacheFailsVolatileCommitWithThePutStatus) {
  Start(/*scache_bytes=*/1024, /*with_ckpt=*/false);
  VectorMeta* meta = Register(/*nonvolatile=*/false);
  ASSERT_NE(meta, nullptr);
  std::vector<std::uint8_t> bytes(100, 0x5A);
  TaskOutcome out = svc_->WriteRegion(*meta, 0, 0, bytes, 0, 0.0).get();
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted)
      << out.status.ToString();
  EXPECT_FALSE(
      svc_->metadata().Lookup({meta->vector_id, 0}, 0, 0.0, nullptr).ok());
}

TEST_F(CommitPathTest, InPlaceAndMaterializedCommitsBumpTheVersionAlike) {
  Start(/*scache_bytes=*/MEGABYTES(1), /*with_ckpt=*/false);
  VectorMeta* meta = Register(/*nonvolatile=*/true);
  ASSERT_NE(meta, nullptr);
  storage::BlobId id{meta->vector_id, 0};
  std::vector<std::uint8_t> a(10, 0xA1), b(10, 0xB2), c(10, 0xC3);
  // 1: materialized (nothing resident yet).
  TaskOutcome o1 = svc_->WriteRegion(*meta, 0, 0, a, 0, 0.0).get();
  ASSERT_TRUE(o1.status.ok());
  EXPECT_EQ(o1.version, 1u);
  EXPECT_EQ(o1.prev_version, ~0ULL);
  // 2: in place on the resident page.
  TaskOutcome o2 = svc_->WriteRegion(*meta, 0, 100, b, 0, o1.done).get();
  ASSERT_TRUE(o2.status.ok());
  EXPECT_EQ(o2.version, 2u);
  EXPECT_EQ(o2.prev_version, 1u);
  storage::BlobLocation in_place = Entry(*meta, 0);
  // Stage out, then drop the resident bytes: the next commit materializes
  // the page from the backend.
  ASSERT_TRUE(svc_->FlushVector(*meta, 0, o2.done, nullptr).ok());
  std::size_t owner = Entry(*meta, 0).node;
  ASSERT_TRUE(svc_->runtime(owner).buffer().Erase(id).ok());
  // 3: materialized over the staged page.
  TaskOutcome o3 = svc_->WriteRegion(*meta, 0, 200, c, 0, o2.done).get();
  ASSERT_TRUE(o3.status.ok());
  EXPECT_EQ(o3.version, 3u);
  storage::BlobLocation materialized = Entry(*meta, 0);
  for (const storage::BlobLocation* loc : {&in_place, &materialized}) {
    EXPECT_TRUE(loc->dirty);
    EXPECT_NE(loc->crc, 0u);
    EXPECT_EQ(loc->tier, sim::TierKind::kDram);
  }
  EXPECT_EQ(in_place.version, 2u);
  EXPECT_EQ(materialized.version, 3u);
  auto page = svc_->ReadPage(*meta, 0, 0, o3.done, nullptr);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)[0], 0xA1);
  EXPECT_EQ((*page)[100], 0xB2);
  EXPECT_EQ((*page)[200], 0xC3);
  EXPECT_EQ(materialized.crc, Crc32(*page));
}

// ---- thread names ----

// /proc/<pid>/task/*/comm tells the threads apart: rank threads are
// rank<N>, service workers n<node>-w<i> (high-latency group) or
// n<node>-ll<i> (low-latency group).
TEST(ThreadNames, RankAndWorkerThreadsAreNamed) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(4)}};
  Service svc(cluster.get(), so);
  std::set<std::string> names;
  auto run = comm::RunRanks(*cluster, 2, 1, [&](comm::RankContext& ctx) {
    if (ctx.rank() != 0) return;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      std::ifstream in(task.path() / "comm");
      std::string name;
      if (std::getline(in, name)) names.insert(name);
    }
  });
  ASSERT_TRUE(run.ok()) << run.error;
  EXPECT_EQ(names.count("rank0"), 1u);
  EXPECT_EQ(names.count("n1-w0"), 1u);
  EXPECT_EQ(names.count("n0-ll0"), 1u);
}

// ---- ServiceOptions::FromYaml ----

TEST(ServiceOptionsYaml, ParsesFullConfig) {
  auto root = yaml::Parse(
      "runtime:\n"
      "  workers_per_node: 3\n"
      "  low_latency_workers: 2\n"
      "  low_latency_threshold: 32k\n"
      "  organize_every: 16\n"
      "  enable_prefetch: false\n"
      "tiers:\n"
      "  - kind: dram\n"
      "    capacity: 1g\n"
      "  - kind: nvme\n"
      "    capacity: 4g\n"
      "  - kind: hdd\n"
      "    capacity: 1t\n");
  ASSERT_TRUE(root.ok());
  auto opts = ServiceOptions::FromYaml(*root);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->workers_per_node, 3);
  EXPECT_EQ(opts->low_latency_workers, 2);
  EXPECT_FALSE(opts->enable_prefetch);
  EXPECT_TRUE(opts->enable_organizer);
  ASSERT_EQ(opts->tier_grants.size(), 3u);
  EXPECT_EQ(opts->tier_grants[0].kind, sim::TierKind::kDram);
  EXPECT_EQ(opts->tier_grants[0].capacity, kGiB);
  EXPECT_EQ(opts->tier_grants[2].kind, sim::TierKind::kHdd);
  EXPECT_EQ(opts->tier_grants[2].capacity, kTiB);
}

TEST(ServiceOptionsYaml, DefaultsWhenSectionsMissing) {
  auto root = yaml::Parse("tiers:\n  - kind: dram\n    capacity: 64m\n");
  ASSERT_TRUE(root.ok());
  auto opts = ServiceOptions::FromYaml(*root);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->workers_per_node, ServiceOptions{}.workers_per_node);
}

TEST(ServiceOptionsYaml, RejectsBadTier) {
  auto root = yaml::Parse("tiers:\n  - kind: floppy\n    capacity: 1m\n");
  ASSERT_TRUE(root.ok());
  EXPECT_FALSE(ServiceOptions::FromYaml(*root).ok());
}

TEST(ServiceOptionsYaml, RejectsZeroCapacity) {
  auto root = yaml::Parse("tiers:\n  - kind: dram\n");
  ASSERT_TRUE(root.ok());
  EXPECT_FALSE(ServiceOptions::FromYaml(*root).ok());
}

TEST(ServiceOptionsYaml, ConfigFileEndToEnd) {
  auto dir = std::filesystem::temp_directory_path() /
             ("mm_yaml_cfg_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / "mm.yaml");
    out << "runtime:\n  workers_per_node: 2\n"
        << "tiers:\n  - kind: dram\n    capacity: 8m\n";
  }
  auto root = yaml::ParseFile((dir / "mm.yaml").string());
  ASSERT_TRUE(root.ok());
  auto opts = ServiceOptions::FromYaml(*root);
  ASSERT_TRUE(opts.ok());
  // A service boots from the parsed config.
  auto cluster = sim::Cluster::PaperTestbed(1);
  Service svc(cluster.get(), *opts);
  EXPECT_EQ(svc.options().workers_per_node, 2);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mm::core
