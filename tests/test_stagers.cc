// Tests for the staging backends: posix, shdf (HDF5-like), spar
// (parquet-like columnar), and the scheme registry. These do real file I/O
// under a temp directory.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "mm/core/service.h"
#include "mm/storage/stager.h"
#include "mm/util/rng.h"

namespace mm::storage {
namespace {

class StagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_stager_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Uri MakeUri(const std::string& scheme, const std::string& file,
              const std::string& fragment = "") {
    Uri uri;
    uri.scheme = scheme;
    uri.path = (dir_ / file).string();
    uri.fragment = fragment;
    return uri;
  }

  static std::vector<std::uint8_t> Pattern(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
    return out;
  }

  std::filesystem::path dir_;
};

// ---------- posix ----------

TEST_F(StagerTest, PosixCreateReadWrite) {
  auto stager = MakePosixStager();
  Uri uri = MakeUri("posix", "data.bin");
  ASSERT_TRUE(stager->Create(uri, 8192).ok());
  EXPECT_TRUE(stager->Exists(uri));
  EXPECT_EQ(*stager->Size(uri), 8192u);

  auto data = Pattern(1024, 1);
  ASSERT_TRUE(stager->Write(uri, 4096, data).ok());
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(stager->Read(uri, 4096, 1024, &back).ok());
  EXPECT_EQ(back, data);
  // Untouched regions read as zeros.
  ASSERT_TRUE(stager->Read(uri, 0, 16, &back).ok());
  EXPECT_EQ(back, std::vector<std::uint8_t>(16, 0));
}

TEST_F(StagerTest, PosixReadPastEndFails) {
  auto stager = MakePosixStager();
  Uri uri = MakeUri("posix", "small.bin");
  ASSERT_TRUE(stager->Create(uri, 100).ok());
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(stager->Read(uri, 90, 20, &out).ok());
}

TEST_F(StagerTest, PosixMissingFile) {
  auto stager = MakePosixStager();
  Uri uri = MakeUri("posix", "absent.bin");
  EXPECT_FALSE(stager->Exists(uri));
  EXPECT_FALSE(stager->Size(uri).ok());
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(stager->Read(uri, 0, 1, &out).ok());
  EXPECT_FALSE(stager->Remove(uri).ok());
}

TEST_F(StagerTest, PosixRemove) {
  auto stager = MakePosixStager();
  Uri uri = MakeUri("posix", "gone.bin");
  ASSERT_TRUE(stager->Create(uri, 10).ok());
  ASSERT_TRUE(stager->Remove(uri).ok());
  EXPECT_FALSE(stager->Exists(uri));
}

TEST_F(StagerTest, PosixCreatesParentDirectories) {
  auto stager = MakePosixStager();
  Uri uri = MakeUri("posix", "deep/nested/dirs/file.bin");
  ASSERT_TRUE(stager->Create(uri, 10).ok());
  EXPECT_TRUE(stager->Exists(uri));
}

// ---------- shdf ----------

TEST_F(StagerTest, ShdfMultipleDatasets) {
  auto stager = MakeShdfStager();
  Uri a = MakeUri("shdf", "c.h5", "groupA");
  Uri b = MakeUri("shdf", "c.h5", "groupB");
  ASSERT_TRUE(stager->Create(a, 1000).ok());
  ASSERT_TRUE(stager->Create(b, 2000).ok());
  EXPECT_EQ(*stager->Size(a), 1000u);
  EXPECT_EQ(*stager->Size(b), 2000u);

  auto da = Pattern(1000, 1), db = Pattern(2000, 2);
  ASSERT_TRUE(stager->Write(a, 0, da).ok());
  ASSERT_TRUE(stager->Write(b, 0, db).ok());
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(stager->Read(a, 0, 1000, &back).ok());
  EXPECT_EQ(back, da);
  ASSERT_TRUE(stager->Read(b, 0, 2000, &back).ok());
  EXPECT_EQ(back, db);
}

TEST_F(StagerTest, ShdfPartialAccessWithinDataset) {
  auto stager = MakeShdfStager();
  Uri uri = MakeUri("shdf", "c.h5", "grid");
  ASSERT_TRUE(stager->Create(uri, 10000).ok());
  auto chunk = Pattern(256, 3);
  ASSERT_TRUE(stager->Write(uri, 5000, chunk).ok());
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(stager->Read(uri, 5000, 256, &back).ok());
  EXPECT_EQ(back, chunk);
}

TEST_F(StagerTest, ShdfBoundsEnforcedPerDataset) {
  auto stager = MakeShdfStager();
  Uri uri = MakeUri("shdf", "c.h5", "small");
  ASSERT_TRUE(stager->Create(uri, 100).ok());
  std::vector<std::uint8_t> out;
  EXPECT_EQ(stager->Read(uri, 90, 20, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stager->Write(uri, 90, Pattern(20, 1)).code(),
            StatusCode::kOutOfRange);
}

TEST_F(StagerTest, ShdfDuplicateCreateFails) {
  auto stager = MakeShdfStager();
  Uri uri = MakeUri("shdf", "c.h5", "dup");
  ASSERT_TRUE(stager->Create(uri, 10).ok());
  EXPECT_EQ(stager->Create(uri, 10).code(), StatusCode::kAlreadyExists);
}

TEST_F(StagerTest, ShdfRemoveDropsOnlyThatDataset) {
  auto stager = MakeShdfStager();
  Uri a = MakeUri("shdf", "c.h5", "keep");
  Uri b = MakeUri("shdf", "c.h5", "drop");
  ASSERT_TRUE(stager->Create(a, 10).ok());
  ASSERT_TRUE(stager->Create(b, 10).ok());
  ASSERT_TRUE(stager->Remove(b).ok());
  EXPECT_TRUE(stager->Exists(a));
  EXPECT_FALSE(stager->Exists(b));
}

TEST_F(StagerTest, ShdfDefaultDatasetNameWhenNoFragment) {
  auto stager = MakeShdfStager();
  Uri uri = MakeUri("shdf", "c.h5");
  ASSERT_TRUE(stager->Create(uri, 64).ok());
  EXPECT_TRUE(stager->Exists(uri));
}

TEST_F(StagerTest, ShdfEmptyFragmentAliasesTheDefaultDataset) {
  auto stager = MakeShdfStager();
  Uri bare = MakeUri("shdf", "c.h5");  // no fragment at all
  Uri empty = MakeUri("shdf", "c.h5", "");
  ASSERT_TRUE(stager->Create(bare, 128).ok());
  // An explicitly empty fragment names the same default dataset: creating
  // it again collides, and bytes written one way read back the other.
  EXPECT_EQ(stager->Create(empty, 128).code(), StatusCode::kAlreadyExists);
  auto data = Pattern(128, 21);
  ASSERT_TRUE(stager->Write(bare, 0, data).ok());
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(stager->Read(empty, 0, 128, &back).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(*stager->Size(empty), 128u);
}

TEST_F(StagerTest, ShdfMissingFragmentWriteAndRemoveAreNotFound) {
  auto stager = MakeShdfStager();
  Uri present = MakeUri("shdf", "c.h5", "real");
  ASSERT_TRUE(stager->Create(present, 64).ok());
  Uri missing = MakeUri("shdf", "c.h5", "ghost");
  EXPECT_EQ(stager->Write(missing, 0, Pattern(16, 1)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(stager->Remove(missing).code(), StatusCode::kNotFound);
  // The failed operations left the container and its real dataset intact.
  EXPECT_TRUE(stager->Exists(present));
  EXPECT_EQ(*stager->Size(present), 64u);
}

TEST_F(StagerTest, ShdfSurvivesManyDatasets) {
  auto stager = MakeShdfStager();
  for (int i = 0; i < 20; ++i) {
    Uri uri = MakeUri("shdf", "many.h5", "ds" + std::to_string(i));
    ASSERT_TRUE(stager->Create(uri, 128).ok());
    ASSERT_TRUE(stager->Write(uri, 0, Pattern(128, i)).ok());
  }
  for (int i = 0; i < 20; ++i) {
    Uri uri = MakeUri("shdf", "many.h5", "ds" + std::to_string(i));
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(stager->Read(uri, 0, 128, &back).ok());
    EXPECT_EQ(back, Pattern(128, i)) << "dataset " << i;
  }
}

// ---------- spar ----------

TEST_F(StagerTest, SparRoundTripsRowMajorData) {
  auto stager = MakeSparStager();
  Uri uri = MakeUri("spar", "pts.parquet", "f4x3");
  // 3 float32 columns -> 12-byte rows; 10000 rows spans 3 row groups.
  const std::uint64_t rows = 10000, row_bytes = 12;
  ASSERT_TRUE(stager->Create(uri, rows * row_bytes).ok());
  EXPECT_EQ(*stager->Size(uri), rows * row_bytes);

  auto data = Pattern(rows * row_bytes, 7);
  ASSERT_TRUE(stager->Write(uri, 0, data).ok());
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(stager->Read(uri, 0, rows * row_bytes, &back).ok());
  EXPECT_EQ(back, data);
}

TEST_F(StagerTest, SparPartialRowRanges) {
  auto stager = MakeSparStager();
  Uri uri = MakeUri("spar", "pts.parquet", "f4x2");
  const std::uint64_t rows = 9000, row_bytes = 8;
  ASSERT_TRUE(stager->Create(uri, rows * row_bytes).ok());
  auto data = Pattern(rows * row_bytes, 5);
  ASSERT_TRUE(stager->Write(uri, 0, data).ok());
  // Read rows [4090, 4110) — crosses the group-0/group-1 boundary at 4096.
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(stager->Read(uri, 4090 * row_bytes, 20 * row_bytes, &back).ok());
  EXPECT_EQ(0, std::memcmp(back.data(), data.data() + 4090 * row_bytes,
                           20 * row_bytes));
  // Overwrite a range crossing the boundary and re-verify.
  auto patch = Pattern(20 * row_bytes, 9);
  ASSERT_TRUE(stager->Write(uri, 4090 * row_bytes, patch).ok());
  ASSERT_TRUE(stager->Read(uri, 4090 * row_bytes, 20 * row_bytes, &back).ok());
  EXPECT_EQ(back, patch);
}

TEST_F(StagerTest, SparAccessStraddlingMultipleRowGroups) {
  auto stager = MakeSparStager();
  Uri uri = MakeUri("spar", "wide.parquet", "f4x2");
  // 12000 rows of 8 bytes span three 4096-row groups.
  const std::uint64_t rows = 12000, row_bytes = 8;
  ASSERT_TRUE(stager->Create(uri, rows * row_bytes).ok());
  auto data = Pattern(rows * row_bytes, 11);
  // Raw-pointer overload straight from a buffer, as the journaled
  // writeback path stages pooled payloads.
  ASSERT_TRUE(stager->Write(uri, 0, data.data(), data.size()).ok());
  // One write spanning rows [4000, 8300): covers the whole middle group
  // plus a tail of group 0 and a head of group 2.
  auto patch = Pattern(4300 * row_bytes, 13);
  ASSERT_TRUE(
      stager->Write(uri, 4000 * row_bytes, patch.data(), patch.size()).ok());
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(stager->Read(uri, 4000 * row_bytes, 4300 * row_bytes, &back).ok());
  EXPECT_EQ(back, patch);
  // The rows around the patched range are untouched.
  ASSERT_TRUE(stager->Read(uri, 3999 * row_bytes, row_bytes, &back).ok());
  EXPECT_EQ(0, std::memcmp(back.data(), data.data() + 3999 * row_bytes,
                           row_bytes));
  ASSERT_TRUE(stager->Read(uri, 8300 * row_bytes, row_bytes, &back).ok());
  EXPECT_EQ(0, std::memcmp(back.data(), data.data() + 8300 * row_bytes,
                           row_bytes));
}

TEST_F(StagerTest, SparFileIsActuallyColumnar) {
  auto stager = MakeSparStager();
  Uri uri = MakeUri("spar", "col.parquet", "f4x2");
  // 4 rows of 2 columns: rows (c0, c1) = (i, 100+i) as float32.
  ASSERT_TRUE(stager->Create(uri, 4 * 8).ok());
  std::vector<std::uint8_t> rows(4 * 8);
  for (int i = 0; i < 4; ++i) {
    float c0 = static_cast<float>(i), c1 = static_cast<float>(100 + i);
    std::memcpy(rows.data() + i * 8, &c0, 4);
    std::memcpy(rows.data() + i * 8 + 4, &c1, 4);
  }
  ASSERT_TRUE(stager->Write(uri, 0, rows).ok());
  // Raw file layout after the 24-byte header must be column-major:
  // c0[0..3] then c1[0..3].
  std::ifstream in(uri.path, std::ios::binary);
  in.seekg(24);
  float raw[8];
  in.read(reinterpret_cast<char*>(raw), sizeof(raw));
  ASSERT_TRUE(in.good());
  EXPECT_FLOAT_EQ(raw[0], 0.0f);
  EXPECT_FLOAT_EQ(raw[3], 3.0f);
  EXPECT_FLOAT_EQ(raw[4], 100.0f);
  EXPECT_FLOAT_EQ(raw[7], 103.0f);
}

TEST_F(StagerTest, SparRejectsUnalignedAccess) {
  auto stager = MakeSparStager();
  Uri uri = MakeUri("spar", "pts.parquet", "f4x3");
  ASSERT_TRUE(stager->Create(uri, 1200).ok());
  std::vector<std::uint8_t> out;
  EXPECT_EQ(stager->Read(uri, 5, 12, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stager->Write(uri, 0, Pattern(7, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StagerTest, SparUnalignedAccessAcrossGroupBoundaryRejected) {
  auto stager = MakeSparStager();
  Uri uri = MakeUri("spar", "pts.parquet", "f4x2");
  const std::uint64_t rows = 9000, row_bytes = 8;
  ASSERT_TRUE(stager->Create(uri, rows * row_bytes).ok());
  // Aligned offset near the 4096-row boundary, but a size that is not a
  // whole number of rows: the straddle must not be silently rounded.
  std::vector<std::uint8_t> out;
  EXPECT_EQ(stager->Read(uri, 4090 * row_bytes, 20 * row_bytes + 3, &out)
                .code(),
            StatusCode::kInvalidArgument);
  // Mid-row offset landing exactly on the boundary row.
  EXPECT_EQ(stager->Write(uri, 4096 * row_bytes + 2, Pattern(row_bytes, 1))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StagerTest, SparRejectsBadSchemaAndSize) {
  auto stager = MakeSparStager();
  EXPECT_FALSE(stager->Create(MakeUri("spar", "x.parquet", "i8x2"), 16).ok());
  // Size not a multiple of row size.
  EXPECT_FALSE(stager->Create(MakeUri("spar", "y.parquet", "f4x3"), 13).ok());
}

// ---------- registry ----------

TEST_F(StagerTest, RegistryResolvesSchemes) {
  auto& reg = StagerRegistry::Default();
  EXPECT_TRUE(reg.Get("posix").ok());
  EXPECT_TRUE(reg.Get("shdf").ok());
  EXPECT_TRUE(reg.Get("spar").ok());
  EXPECT_TRUE(reg.Get("file").ok());
  EXPECT_FALSE(reg.Get("s3").ok());

  auto resolved = reg.Resolve("shdf://" + (dir_ / "z.h5").string() + ":grp");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->second.scheme, "shdf");
  EXPECT_EQ(resolved->second.fragment, "grp");
}

TEST_F(StagerTest, RegistryDefaultsBareKeysToPosix) {
  auto& reg = StagerRegistry::Default();
  auto resolved = reg.Resolve((dir_ / "plain.bin").string());
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->second.scheme, "posix");
}

TEST_F(StagerTest, PosixKeyWithFragmentIsRejected) {
  // A flat file has no datasets: `f.bin:u0` and `f.bin:v0` would silently
  // share one file. The key is refused instead, for every posix spelling.
  const std::string file = (dir_ / "f.bin").string();
  auto& reg = StagerRegistry::Default();
  for (const std::string& key :
       {"posix://" + file + ":u0", "file://" + file + ":u0", file + ":u0"}) {
    EXPECT_EQ(reg.Resolve(key).status().code(), StatusCode::kInvalidArgument)
        << key;
  }
  auto cluster = sim::Cluster::PaperTestbed(1);
  core::ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(1)}};
  core::Service svc(cluster.get(), so);
  core::VectorOptions vo;
  vo.nonvolatile = true;
  auto u = svc.RegisterVector("posix://" + file + ":u0", 8, vo, 16);
  EXPECT_EQ(u.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(file));
  // The plain key, and fragments on a backend with sub-objects, still bind.
  EXPECT_TRUE(svc.RegisterVector("posix://" + file, 8, vo, 16).ok());
  EXPECT_TRUE(
      svc.RegisterVector("shdf://" + (dir_ / "g.h5").string() + ":u0", 8, vo,
                         16)
          .ok());
}

// ---------- error paths (fault-tolerance PR) ----------

TEST_F(StagerTest, ShdfMissingObjectRead) {
  auto stager = MakeShdfStager();
  // Container file does not exist at all.
  std::vector<std::uint8_t> out;
  EXPECT_EQ(stager->Read(MakeUri("shdf", "absent.h5", "a"), 0, 16, &out).code(),
            StatusCode::kNotFound);
  // Container exists, dataset does not.
  Uri a = MakeUri("shdf", "c.h5", "a");
  ASSERT_TRUE(stager->Create(a, 256).ok());
  Uri missing = MakeUri("shdf", "c.h5", "nope");
  EXPECT_EQ(stager->Read(missing, 0, 16, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(stager->Size(missing).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(stager->Exists(missing));
}

TEST_F(StagerTest, ShdfBadMagicIsInvalidArgument) {
  auto stager = MakeShdfStager();
  Uri uri = MakeUri("shdf", "junk.h5", "a");
  {
    std::ofstream out(uri.path, std::ios::binary);
    std::vector<char> junk(64, 'x');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  std::vector<std::uint8_t> bytes;
  EXPECT_EQ(stager->Read(uri, 0, 16, &bytes).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stager->Size(uri).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StagerTest, ShdfTruncatedHeaderIsInvalidArgument) {
  auto stager = MakeShdfStager();
  Uri uri = MakeUri("shdf", "trunc.h5", "a");
  {
    // Valid magic but the header is cut short.
    std::ofstream out(uri.path, std::ios::binary);
    out.write("SHDF0001", 8);
    std::uint32_t partial = 0;
    out.write(reinterpret_cast<const char*>(&partial), 4);
  }
  std::vector<std::uint8_t> bytes;
  EXPECT_EQ(stager->Read(uri, 0, 16, &bytes).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StagerTest, ShdfCorruptIndexIsIoError) {
  auto stager = MakeShdfStager();
  Uri uri = MakeUri("shdf", "corrupt.h5", "a");
  ASSERT_TRUE(stager->Create(uri, 128).ok());
  {
    // Claim far more index entries than the file holds; the index walk runs
    // off the end of the file.
    std::fstream io(uri.path, std::ios::binary | std::ios::in | std::ios::out);
    std::uint64_t bogus_count = 1000;
    io.seekp(16);
    io.write(reinterpret_cast<const char*>(&bogus_count), 8);
  }
  std::vector<std::uint8_t> bytes;
  EXPECT_EQ(stager->Read(uri, 0, 16, &bytes).code(), StatusCode::kIoError);
}

TEST_F(StagerTest, SparMalformedSchemaFragment) {
  auto stager = MakeSparStager();
  EXPECT_EQ(stager->Create(MakeUri("spar", "b1.spar", "f4xzzz"), 64).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stager->Create(MakeUri("spar", "b2.spar", "f4x0"), 64).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stager->Create(MakeUri("spar", "b3.spar", "i8x2"), 64).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StagerTest, SparBadMagicIsInvalidArgument) {
  auto stager = MakeSparStager();
  Uri uri = MakeUri("spar", "junk.spar");
  {
    std::ofstream out(uri.path, std::ios::binary);
    std::vector<char> junk(64, 'y');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  std::vector<std::uint8_t> bytes;
  EXPECT_EQ(stager->Read(uri, 0, 4, &bytes).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stager->Size(uri).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StagerTest, SparMissingFileRead) {
  auto stager = MakeSparStager();
  std::vector<std::uint8_t> bytes;
  EXPECT_EQ(stager->Read(MakeUri("spar", "absent.spar"), 0, 4, &bytes).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace mm::storage
