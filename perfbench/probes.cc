// Outside-in layer probes: each one times direct calls into one layer's
// public API on a fresh service configured like the workload. They run
// after the measured rounds, on scratch objects, so they never disturb a
// workload's counters or outputs.
#include <chrono>
#include <filesystem>

#include "bench.h"
#include "mm/apps/kvstore.h"
#include "mm/apps/points.h"
#include "mm/ckpt/journal.h"
#include "mm/mega_mmap.h"
#include "mm/storage/stager.h"
#include "mm/util/hash.h"
#include "mm/util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mm::core::Service;
using mm::core::VectorMeta;
using mm::storage::BlobId;

constexpr int kPasses = 4;          // read probes: passes over every page
constexpr int kCommPings = 400;     // comm probes: calls per collective
constexpr int kJournalAppends = 64;
constexpr int kCrcCalls = 256;
constexpr int kScanSlices = 8;
constexpr std::size_t kTreeKeys = 2048;
constexpr std::uint64_t kScanSliceBytes = 1 * mm::kMiB;

/// Times one call in nanoseconds.
template <typename F>
double TimeNs(F&& f) {
  const auto a = std::chrono::steady_clock::now();
  f();
  const auto b = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Scratch pages: enough to spill past the DRAM grant when the workload
/// has a second tier, so both tiers hold probe blobs.
std::uint64_t ScratchPages(const Layout& layout) {
  const auto& grants = layout.service.tier_grants;
  std::uint64_t pages = 256;
  if (grants.size() > 1) {
    pages = std::max<std::uint64_t>(pages, 4 * grants[0].capacity / layout.page_size);
  }
  return pages;
}

/// Reads `slices` 1 MiB slices of `key` through Vector transactions;
/// returns wall ns per element of each slice.
template <typename T>
void ScanProbe(Service& svc, mm::comm::RankContext& ctx, const std::string& key,
               mm::core::VectorOptions vopts, std::uint64_t seed,
               Samples* out) {
  vopts.pcache_bytes = 1 * mm::kMiB;
  mm::Rng rng(seed);
  const std::uint64_t slice = kScanSliceBytes / sizeof(T);
  for (int s = 0; s < kScanSlices; ++s) {
    // A fresh handle per slice starts from an empty pcache.
    mm::core::Vector<T> vec(svc, ctx, key, 0, vopts);
    const std::uint64_t n = vec.size();
    const std::uint64_t len = std::min(slice, n);
    const std::uint64_t off = n > len ? rng.Next() % (n - len) : 0;
    double sum = 0;
    const double ns = TimeNs([&] {
      auto tx = vec.SeqTxBegin(off, len, mm::core::MM_READ_ONLY);
      const std::uint64_t chunk = vec.MaxSpanElems();
      for (std::uint64_t lo = off; lo < off + len; lo += chunk) {
        const std::uint64_t hi = std::min(off + len, lo + chunk);
        auto span = vec.ReadSpan(lo, hi);
        for (std::uint64_t i = lo; i < hi; ++i) {
          sum += reinterpret_cast<const unsigned char*>(&span[i])[0];
        }
      }
      vec.TxEnd();
    });
    volatile double sink = sum;  // keeps the read loop observable
    (void)sink;
    out->Add(ns / static_cast<double>(len));
  }
}

}  // namespace

ProbeResult RunProbes(const Workload& workload, std::uint64_t seed,
                      const std::string& dir) {
  ProbeResult res;
  const Layout& layout = workload.layout();
  const std::uint64_t page = layout.page_size;
  auto fail = [&](const std::string& what, const mm::Status& st) {
    res.errors.push_back(what + ": " + st.ToString());
  };

  // util.crc32: one page of the workload's page size.
  {
    std::vector<std::uint8_t> buf(page);
    mm::Rng rng(DeriveSeed(seed, "probe/crc"));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.Next());
    volatile std::uint32_t crc = 0;  // keeps every call's result observable
    for (int i = 0; i < kCrcCalls; ++i) {
      res.ns["crc32"].Add(TimeNs([&] { crc = mm::Crc32(buf.data(), buf.size()); }));
    }
  }

  auto cluster = mm::sim::Cluster::PaperTestbed(layout.nodes);
  Service svc(cluster.get(), layout.service);
  const std::size_t nodes = svc.num_nodes();

  // Scratch vector: placed by whole-page commits, then read back.
  mm::core::VectorOptions vopts;
  vopts.page_size = page;
  vopts.mode = mm::core::CoherenceMode::kReadWriteGlobal;
  vopts.nonvolatile = false;
  const std::uint64_t pages = ScratchPages(layout);
  auto meta_or = svc.RegisterVector("perfbench_probe", sizeof(double), vopts,
                                    pages * page / sizeof(double));
  if (!meta_or.ok()) {
    fail("probe vector", meta_or.status());
    return res;
  }
  VectorMeta& meta = **meta_or;
  std::vector<std::size_t> owner(pages, 0);
  {
    // core.commit: WriteRegion(...).get(). The first pass places the pages;
    // the timed pass overwrites them in place.
    std::vector<std::uint8_t> bytes(meta.page_bytes);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint64_t p = 0; p < pages; ++p) {
        for (std::size_t i = 0; i < bytes.size(); i += 64) {
          bytes[i] = static_cast<std::uint8_t>(p + pass + i);
        }
        mm::core::TaskOutcome outcome;
        const double ns = TimeNs([&] {
          outcome = svc.WriteRegion(meta, p, 0, bytes, 0, 0.0).get();
        });
        if (!outcome.status.ok()) {
          fail("WriteRegion", outcome.status);
          return res;
        }
        if (pass == 1) res.ns["commit"].Add(ns);
      }
    }
  }
  // storage.metadata: MetadataManager::Lookup.
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::uint64_t p = 0; p < pages; ++p) {
      mm::sim::SimTime done = 0;
      mm::StatusOr<mm::storage::BlobLocation> loc = mm::NotFound("unset");
      const double ns = TimeNs([&] {
        loc = svc.metadata().Lookup(BlobId{meta.vector_id, p}, 0, 0.0, &done);
      });
      if (!loc.ok()) {
        fail("Lookup", loc.status());
        return res;
      }
      owner[p] = loc->node;
      res.ns["metadata"].Add(ns);
    }
  }
  // core.readpath and core.queue: the same remote page read, once through
  // the lock-free path and once through the owner's worker queue.
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::uint64_t p = 0; p < pages; ++p) {
      const std::size_t from = (owner[p] + 1) % nodes;
      mm::sim::SimTime done = 0;
      std::optional<std::vector<std::uint8_t>> fast;
      res.ns["readpath"].Add(TimeNs([&] {
        fast = svc.TryReadPageOptimistic(meta, p, from, 0.0, &done);
      }));
      if (fast.has_value()) ++res.readpath_probe_hits;
      mm::StatusOr<std::vector<std::uint8_t>> slow = mm::NotFound("unset");
      const double ns = TimeNs([&] { slow = svc.ReadPage(meta, p, from, 0.0, &done); });
      if (!slow.ok()) {
        fail("ReadPage", slow.status());
        return res;
      }
      res.ns["queue"].Add(ns);
    }
  }
  // storage.buffer / storage.tier: GetInto on the owning node, then on each
  // tier store directly for the blobs it holds.
  {
    std::vector<std::uint8_t> out;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::uint64_t p = 0; p < pages; ++p) {
        mm::sim::SimTime done = 0;
        mm::Status st;
        const double ns = TimeNs([&] {
          st = svc.runtime(owner[p]).buffer().GetInto(BlobId{meta.vector_id, p},
                                                      &out, 0.0, &done);
        });
        if (!st.ok()) {
          fail("BufferManager::GetInto", st);
          return res;
        }
        res.ns["buffer_get"].Add(ns);
      }
    }
    for (std::size_t n = 0; n < nodes; ++n) {
      auto& bm = svc.runtime(n).buffer();
      for (std::size_t t = 0; t < bm.num_tiers(); ++t) {
        mm::storage::TierStore& tier = bm.tier(t);
        const std::string name =
            tier.kind() == mm::sim::TierKind::kDram ? "tier_dram_get" : "tier_nvme_get";
        for (const BlobId& id : tier.ListBlobs()) {
          if (id.vector_id != meta.vector_id) continue;
          for (int pass = 0; pass < kPasses; ++pass) {
            mm::sim::SimTime done = 0;
            mm::Status st;
            const double ns = TimeNs([&] { st = tier.GetInto(id, &out, 0.0, &done); });
            if (st.ok()) res.ns[name].Add(ns);
          }
        }
      }
    }
  }
  // storage.stager: page-sized writes then reads of a scratch object on the
  // workload's backend (posix when it has none).
  {
    const std::string scheme =
        layout.backend_scheme.empty() ? "posix" : layout.backend_scheme;
    const std::string key = scheme + "://" + dir + "/probe_stager.bin" +
                            (scheme == "shdf" ? ":probe" : "");
    auto resolved = mm::storage::StagerRegistry::Default().Resolve(key);
    if (!resolved.ok()) {
      fail("stager", resolved.status());
      return res;
    }
    auto [stager, uri] = *resolved;
    const std::uint64_t n = 64;
    mm::Status st = stager->Create(uri, n * page);
    std::vector<std::uint8_t> bytes(page, 0x5a), back;
    for (std::uint64_t i = 0; i < n && st.ok(); ++i) {
      res.ns["stager_write"].Add(TimeNs([&] { st = stager->Write(uri, i * page, bytes); }));
    }
    for (int pass = 0; pass < kPasses && st.ok(); ++pass) {
      for (std::uint64_t i = 0; i < n && st.ok(); ++i) {
        res.ns["stager_read"].Add(
            TimeNs([&] { st = stager->Read(uri, i * page, page, &back); }));
      }
    }
    if (!st.ok()) fail("stager probe", st);
    std::error_code ec;
    fs::remove(uri.path, ec);
  }
  // ckpt.journal: page-sized redo records appended to a scratch journal.
  {
    const std::string path = dir + "/probe_journal.mmj";
    {
      mm::ckpt::Journal journal(path);
      mm::ckpt::JournalRecord rec;
      rec.key = "posix://" + dir + "/probe_journal_target.bin";
      rec.payload.assign(page, 0xa5);
      for (int i = 0; i < kJournalAppends; ++i) {
        rec.id = BlobId{1, static_cast<std::uint64_t>(i)};
        rec.version = static_cast<std::uint64_t>(i) + 1;
        mm::Status st;
        res.ns["journal_append"].Add(TimeNs([&] { st = journal.Append(rec); }));
        if (!st.ok()) {
          fail("Journal::Append", st);
          break;
        }
      }
    }
    std::error_code ec;
    fs::remove(path, ec);
  }
  // core.vector / core.pcache: transactional scans of 1 MiB slices.
  {
    // The workload's own dataset when it has one, else the scratch vector.
    std::string key = workload.scan_key();
    mm::core::VectorOptions scan_opts = vopts;
    if (!key.empty()) {
      scan_opts = mm::core::VectorOptions{};
      scan_opts.page_size = page;
      scan_opts.mode = mm::core::CoherenceMode::kReadOnlyGlobal;
    } else {
      key = "perfbench_probe";
    }
    const std::uint64_t scan_seed = DeriveSeed(seed, "probe/scan");
    mm::comm::RunResult run = mm::comm::RunRanks(
        *cluster, 1, 1, [&](mm::comm::RankContext& ctx) {
          if (workload.scan_elem_size() == sizeof(mm::apps::Particle)) {
            ScanProbe<mm::apps::Particle>(svc, ctx, key, scan_opts, scan_seed,
                                          &res.ns["scan_elem"]);
          } else {
            ScanProbe<double>(svc, ctx, key, scan_opts, scan_seed,
                              &res.ns["scan_elem"]);
          }
        });
    if (!run.ok()) res.errors.push_back("scan probe: " + run.error);
  }
  // comm: Barrier, AllReduce and a cross-node ping-pong, with the
  // workload's rank layout, timed on rank 0.
  {
    mm::comm::RunResult run = mm::comm::RunRanks(
        *cluster, layout.ranks(), layout.ranks_per_node,
        [&](mm::comm::RankContext& ctx) {
          mm::comm::Communicator comm(&ctx);
          const bool timer = comm.rank() == 0;
          const int peer = comm.size() - 1;
          for (int i = 0; i < kCommPings; ++i) {
            const double ns = TimeNs([&] { comm.Barrier(); });
            if (timer) res.ns["barrier"].Add(ns);
          }
          std::vector<double> v(8, 1.0);
          for (int i = 0; i < kCommPings; ++i) {
            const double ns = TimeNs([&] {
              comm.AllReduce(v, [](double a, double b) { return a + b; });
            });
            if (timer) res.ns["allreduce"].Add(ns);
            std::fill(v.begin(), v.end(), 1.0);
          }
          std::uint8_t msg[64] = {};
          for (int i = 0; i < kCommPings; ++i) {
            if (comm.rank() == 0) {
              res.ns["pingpong"].Add(TimeNs([&] {
                comm.SendBytes(peer, 7, msg, sizeof(msg));
                (void)comm.RecvBytes(peer, 8);
              }));
            } else if (comm.rank() == peer) {
              (void)comm.RecvBytes(0, 7);
              comm.SendBytes(0, 8, msg, sizeof(msg));
            }
          }
          comm.Barrier();
        });
    if (!run.ok()) res.errors.push_back("comm probe: " + run.error);
  }
  // index.btree: Put then Get on a single-client tree of 100-byte records.
  {
    mm::comm::RunResult run = mm::comm::RunRanks(
        *cluster, 1, 1, [&](mm::comm::RankContext& ctx) {
          mm::index::BTreeOptions opt;
          opt.max_nodes = 1 << 14;
          opt.cache_bytes = 64 * 4096;
          mm::apps::KvTree tree(svc, ctx, "mem://perfbench_probe_tree", opt);
          tree.Create();
          mm::Rng rng(DeriveSeed(seed, "probe/btree"));
          std::vector<std::uint64_t> keys(kTreeKeys);
          for (auto& k : keys) k = rng.Next();
          for (std::uint64_t k : keys) {
            const mm::apps::KvRecord rec = mm::apps::MakeRecord(k, 0);
            res.ns["btree_put"].Add(TimeNs([&] { tree.Put(k, rec); }));
          }
          for (int pass = 0; pass < kPasses; ++pass) {
            for (std::size_t i = 0; i < keys.size(); ++i) {
              const std::uint64_t k = keys[rng.Next() % keys.size()];
              mm::apps::KvRecord rec{};
              bool hit = false;
              res.ns["btree_get"].Add(TimeNs([&] { hit = tree.Get(k, &rec); }));
              if (!hit) {
                res.errors.push_back("btree probe: a loaded key missed");
                return;
              }
            }
          }
        });
    if (!run.ok()) res.errors.push_back("btree probe: " + run.error);
  }
  svc.Shutdown();
  return res;
}

}  // namespace perfbench
