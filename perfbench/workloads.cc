// The three benchmark workloads (perfbench/README.md explains why each one
// exists and which layers it loads).

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <unordered_set>

#include "bench.h"
#include "mm/apps/datagen.h"
#include "mm/apps/gray_scott.h"
#include "mm/apps/kmeans.h"
#include "mm/apps/kvstore.h"
#include "mm/apps/reference.h"
#include "mm/mega_mmap.h"
#include "mm/storage/stager.h"
#include "mm/util/hash.h"
#include "mm/util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mm::comm::Communicator;
using mm::comm::RankContext;
using mm::comm::RunResult;
using mm::core::Service;
using mm::telemetry::MetricsSnapshot;

/// Counter-wise `after - before` (histograms keep only count and sum).
MetricsSnapshot Delta(const MetricsSnapshot& after,
                      const MetricsSnapshot& before) {
  MetricsSnapshot d;
  for (const auto& [name, v] : after.counters) {
    auto it = before.counters.find(name);
    d.counters[name] = v - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, h] : after.histograms) {
    mm::telemetry::HistogramSnapshot dh;
    dh.count = h.count;
    dh.sum = h.sum;
    auto it = before.histograms.find(name);
    if (it != before.histograms.end()) {
      dh.count -= it->second.count;
      dh.sum -= it->second.sum;
    }
    d.histograms[name] = dh;
  }
  return d;
}

/// Runs a simulated job, turning an escaped exception into a job error.
RunResult RunJob(mm::sim::Cluster& cluster, const Layout& layout,
                 const std::function<void(RankContext&)>& body) {
  try {
    return mm::comm::RunRanks(
        cluster, layout.ranks(), layout.ranks_per_node,
        [&](RankContext& ctx) {
          try {
            body(ctx);
          } catch (const mm::comm::RankDeathError&) {
            throw;
          } catch (...) {
            // A failed rank leaves the job, so peers parked in a barrier
            // are released instead of waiting for it forever.
            ctx.world().KillRank(ctx.rank(), ctx.clock().now());
            throw;
          }
        });
  } catch (const std::exception& e) {
    RunResult r;
    r.error = e.what();
    return r;
  }
}

void FailRound(Round* r, const std::string& why) {
  r->errors.push_back(why);
  r->failed = r->attempted;
}

bool NearRel(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

// ---------------------------------------------------------------------------
// kmeans_ooc: read-only out-of-core scan, 12x the DRAM grant.

class KMeansOoc : public Workload {
 public:
  KMeansOoc(std::uint64_t seed, const std::string& dir) {
    gen_.num_particles = 4'000'000;  // 96 MB of 24-byte particles
    gen_.halos = 8;
    gen_.seed = DeriveSeed(seed, "kmeans/datagen");
    cfg_.k = 8;
    cfg_.max_iter = 4;
    cfg_.seed = DeriveSeed(seed, "kmeans/init");
    cfg_.page_size = 64 * mm::kKiB;
    cfg_.pcache_bytes = 1 * mm::kMiB;
    layout_.nodes = 2;
    layout_.ranks_per_node = 2;
    layout_.page_size = cfg_.page_size;
    layout_.service.tier_grants = {{mm::sim::TierKind::kDram, mm::MEGABYTES(8)},
                                   {mm::sim::TierKind::kNvme, mm::MEGABYTES(512)}};
    layout_.backend_scheme = "posix";
    key_ = "posix://" + dir + "/particles.bin";
  }

  const Layout& layout() const override { return layout_; }
  std::uint64_t dataset_bytes() const override {
    return gen_.num_particles * sizeof(mm::apps::Particle);
  }
  std::string scan_key() const override { return key_; }
  std::size_t scan_elem_size() const override {
    return sizeof(mm::apps::Particle);
  }
  std::map<std::string, std::string> Describe() const override {
    return {{"particles", std::to_string(gen_.num_particles)},
            {"k", std::to_string(cfg_.k)},
            {"lloyd_iterations", std::to_string(cfg_.max_iter)},
            {"datagen_seed", std::to_string(gen_.seed)},
            {"init_seed", std::to_string(cfg_.seed)}};
  }

  // Every session runs the job on a fresh, cold service. The first
  // kDatagenSessions sessions also regenerate the (identical) dataset, so
  // set-up is timed several times; later sessions reuse the file.
  std::vector<Round> RunSession(const std::vector<bool>& traced) override {
    Round r;
    r.traced = traced.at(0);
    r.has_setup = sessions_++ < kDatagenSessions;
    r.ops = static_cast<double>(gen_.num_particles) * (cfg_.max_iter + 1);
    r.attempted = static_cast<std::uint64_t>(r.ops);
    results_.emplace_back();
    Run(&r);
    return {std::move(r)};
  }

  void Run(Round* out) {
    Round& r = *out;
    const double t0 = WallNow();
    if (r.has_setup) {
      auto truth = mm::apps::GenerateToBackend(gen_, key_);
      if (!truth.ok()) {
        FailRound(&r, "datagen: " + truth.status().ToString());
        return;
      }
    }
    auto cluster = mm::sim::Cluster::PaperTestbed(layout_.nodes);
    auto svc = std::make_unique<Service>(cluster.get(), layout_.service);
    r.setup_s = WallNow() - t0;

    MetricsSnapshot before;
    if (r.traced) before = svc->TelemetrySnapshot().totals;
    mm::apps::KMeansResult result;
    const double c0 = CpuNow(), w0 = WallNow();
    RunResult run = RunJob(*cluster, layout_, [&](RankContext& ctx) {
      Communicator comm(&ctx);
      auto res = mm::apps::KMeansMega(*svc, comm, key_, cfg_);
      if (ctx.rank() == 0) result = res;
    });
    svc->Shutdown();
    r.wall_s = WallNow() - w0;
    r.cpu_s = CpuNow() - c0;
    r.sim_s = run.max_time;
    if (r.traced) r.telemetry = Delta(svc->TelemetrySnapshot().totals, before);
    if (!run.ok()) {
      FailRound(&r, "kmeans job: " + (run.oom ? "simulated OOM" : run.error));
      return;
    }
    results_.back() = result;
  }

  // Oracle: the same points, the same initial centroids (a zero-iteration
  // run of the same job), ReferenceKMeans for the trajectory, and the
  // tolerances test_apps_kmeans uses.
  void Verify(std::vector<Round>* rounds) override {
    mm::apps::KMeansConfig init_cfg = cfg_;
    init_cfg.max_iter = 0;
    mm::apps::KMeansResult init;
    {
      auto cluster = mm::sim::Cluster::PaperTestbed(layout_.nodes);
      Service svc(cluster.get(), layout_.service);
      RunResult run = RunJob(*cluster, layout_, [&](RankContext& ctx) {
        Communicator comm(&ctx);
        auto res = mm::apps::KMeansMega(svc, comm, key_, init_cfg);
        if (ctx.rank() == 0) init = res;
      });
      if (!run.ok()) {
        for (Round& r : *rounds) FailRound(&r, "kmeans init job: " + run.error);
        return;
      }
    }
    std::vector<mm::apps::Point3> pts;
    {
      std::vector<mm::apps::Particle> particles;
      mm::apps::GenerateParticles(gen_, &particles);
      pts.reserve(particles.size());
      for (const auto& p : particles) pts.push_back(p.pos);
    }
    const auto ref =
        mm::apps::ReferenceKMeans(pts, init.centroids, cfg_.max_iter);
    for (std::size_t i = 0; i < rounds->size(); ++i) {
      Round& r = (*rounds)[i];
      if (!r.errors.empty()) continue;
      const mm::apps::KMeansResult& got = results_[i];
      if (got.centroids.size() != ref.size()) {
        FailRound(&r, "kmeans: centroid count differs from the reference");
        continue;
      }
      for (std::size_t j = 0; j < ref.size(); ++j) {
        for (int a = 0; a < 3; ++a) {
          if (std::fabs(got.centroids[j].axis(a) - ref[j].axis(a)) > 1e-3) {
            FailRound(&r, "kmeans: centroid " + std::to_string(j) +
                              " differs from ReferenceKMeans");
          }
        }
      }
      const double ref_inertia = mm::apps::ReferenceInertia(pts, got.centroids);
      if (!NearRel(got.inertia, ref_inertia, 1e-4)) {
        FailRound(&r, "kmeans: inertia " + std::to_string(got.inertia) +
                          " vs reference " + std::to_string(ref_inertia));
      }
    }
  }

 private:
  mm::apps::DatagenConfig gen_;
  mm::apps::KMeansConfig cfg_;
  Layout layout_;
  static constexpr int kDatagenSessions = 3;
  std::string key_;
  int sessions_ = 0;
  std::vector<mm::apps::KMeansResult> results_;  // one per round
};

// ---------------------------------------------------------------------------
// grayscott_ckpt: the write side, checkpointing every step with journaled
// writeback.

class GrayScottCkpt : public Workload {
 public:
  GrayScottCkpt(std::uint64_t seed, const std::string& dir) : dir_(dir) {
    cfg_.L = 144;
    cfg_.steps = 5;
    cfg_.plotgap = 1;
    cfg_.page_size = 64 * mm::kKiB;
    cfg_.pcache_bytes = 2 * mm::kMiB;
    // The seed picks the reaction rates inside the usual pattern-forming
    // band; the cost per cell does not depend on them.
    mm::Rng rng(DeriveSeed(seed, "grayscott/params"));
    cfg_.params.F = 0.02 + 0.002 * (rng.NextDouble() - 0.5);
    cfg_.params.k = 0.048 + 0.002 * (rng.NextDouble() - 0.5);
    // The shdf stager keeps the four grid vectors as named datasets of one
    // file; the posix stager ignores the dataset name, so the four
    // vectors would alias one file.
    cfg_.out_key = "shdf://" + dir + "/grayscott.h5";
    layout_.nodes = 2;
    layout_.ranks_per_node = 2;
    layout_.page_size = cfg_.page_size;
    layout_.service.tier_grants = {
        {mm::sim::TierKind::kDram, mm::MEGABYTES(16)},
        {mm::sim::TierKind::kNvme, mm::MEGABYTES(512)}};
    layout_.backend_scheme = "shdf";
  }

  const Layout& layout() const override { return layout_; }
  std::uint64_t dataset_bytes() const override { return 0; }
  std::string scan_key() const override { return cfg_.out_key + ":" + Final("u"); }
  std::size_t scan_elem_size() const override { return sizeof(double); }
  std::map<std::string, std::string> Describe() const override {
    return {{"L", std::to_string(cfg_.L)},
            {"steps", std::to_string(cfg_.steps)},
            {"plotgap", std::to_string(cfg_.plotgap)},
            {"F", std::to_string(cfg_.params.F)},
            {"k", std::to_string(cfg_.params.k)}};
  }

  std::vector<Round> RunSession(const std::vector<bool>& traced) override {
    Round r;
    r.traced = traced.at(0);
    r.has_setup = true;
    const double cells = static_cast<double>(cfg_.L) * cfg_.L * cfg_.L;
    r.ops = cells * cfg_.steps;
    r.attempted = static_cast<std::uint64_t>(r.ops);
    results_.emplace_back();
    Run(&r);
    return {std::move(r)};
  }

  void Run(Round* out) {
    Round& r = *out;
    const double t0 = WallNow();
    const fs::path ckpt_dir = fs::path(dir_) / "ckpt";
    std::error_code ec;
    fs::remove_all(ckpt_dir, ec);
    fs::remove(fs::path(dir_) / "grayscott.h5", ec);
    fs::create_directories(ckpt_dir);
    mm::core::ServiceOptions so = layout_.service;
    so.ckpt.dir = ckpt_dir.string();
    auto cluster = mm::sim::Cluster::PaperTestbed(layout_.nodes);
    auto svc = std::make_unique<Service>(cluster.get(), so);
    r.setup_s = WallNow() - t0;

    MetricsSnapshot before;
    if (r.traced) before = svc->TelemetrySnapshot().totals;
    mm::apps::GrayScottResult result;
    const double c0 = CpuNow(), w0 = WallNow();
    RunResult run = RunJob(*cluster, layout_, [&](RankContext& ctx) {
      Communicator comm(&ctx);
      auto res = mm::apps::GrayScottMega(*svc, comm, cfg_);
      if (ctx.rank() == 0) result = res;
    });
    svc->Shutdown();  // the last checkpoint is durable only after this
    r.wall_s = WallNow() - w0;
    r.cpu_s = CpuNow() - c0;
    r.sim_s = run.max_time;
    r.user_bytes_written = static_cast<double>(result.bytes_checkpointed);
    if (r.traced) r.telemetry = Delta(svc->TelemetrySnapshot().totals, before);
    svc.reset();
    fs::remove_all(ckpt_dir, ec);
    if (!run.ok()) {
      FailRound(&r, "grayscott job: " + (run.oom ? "simulated OOM" : run.error));
      return;
    }
    Outcome& got = results_.back();
    got.sum_u = result.sum_u;
    got.sum_v = result.sum_v;
    // Read the final checkpoint back through the stager.
    for (const char* species : {"u", "v"}) {
      auto grid = ReadBack(Final(species));
      if (!grid.ok()) {
        FailRound(&r, "grayscott checkpoint read-back: " +
                          grid.status().ToString());
        return;
      }
      const double sum = Sum(*grid);
      const double want = species[0] == 'u' ? result.sum_u : result.sum_v;
      if (!NearRel(sum, want, 1e-12)) {
        FailRound(&r, std::string("grayscott: checkpointed ") + species +
                          " sums to " + std::to_string(sum) +
                          ", the job reported " + std::to_string(want));
      }
      (species[0] == 'u' ? got.crc_u : got.crc_v) = GridCrc(*grid);
    }
  }

  void Verify(std::vector<Round>* rounds) override {
    std::vector<double> u, v, u2, v2;
    mm::apps::GrayScottInit(cfg_.L, &u, &v);
    for (int s = 0; s < cfg_.steps; ++s) {
      mm::apps::ReferenceGrayScottStep(cfg_.L, u, v, &u2, &v2, cfg_.params);
      std::swap(u, u2);
      std::swap(v, v2);
    }
    const double ref_u = Sum(u), ref_v = Sum(v);
    const std::uint32_t crc_u = GridCrc(u), crc_v = GridCrc(v);
    for (std::size_t i = 0; i < rounds->size(); ++i) {
      Round& r = (*rounds)[i];
      if (!r.errors.empty()) continue;
      const Outcome& got = results_[i];
      if (!NearRel(got.sum_u, ref_u, 1e-9) || !NearRel(got.sum_v, ref_v, 1e-9)) {
        FailRound(&r, "grayscott: sums differ from the reference grid's");
      }
      if (got.crc_u != crc_u || got.crc_v != crc_v) {
        FailRound(&r, "grayscott: checkpointed grid differs from the reference");
      }
    }
  }

 private:
  struct Outcome {
    double sum_u = 0, sum_v = 0;
    std::uint32_t crc_u = 0, crc_v = 0;
  };

  /// Dataset holding a species' grid after the last step (the double
  /// buffers alternate every step).
  std::string Final(const char* species) const {
    return std::string(species) + (cfg_.steps % 2 == 1 ? "1" : "0");
  }

  mm::StatusOr<std::vector<double>> ReadBack(const std::string& dataset) const {
    auto resolved = mm::storage::StagerRegistry::Default().Resolve(
        cfg_.out_key + ":" + dataset);
    if (!resolved.ok()) return resolved.status();
    auto [stager, uri] = *resolved;
    const std::uint64_t bytes = cfg_.L * cfg_.L * cfg_.L * sizeof(double);
    std::vector<std::uint8_t> raw;
    MM_RETURN_IF_ERROR(stager->Read(uri, 0, bytes, &raw));
    if (raw.size() != bytes) return mm::IoError("short checkpoint read");
    std::vector<double> grid(bytes / sizeof(double));
    std::memcpy(grid.data(), raw.data(), bytes);
    return grid;
  }

  static double Sum(const std::vector<double>& g) {
    double s = 0;
    for (double x : g) s += x;
    return s;
  }
  static std::uint32_t GridCrc(const std::vector<double>& g) {
    return mm::Crc32(reinterpret_cast<const std::uint8_t*>(g.data()),
                     g.size() * sizeof(double));
  }

  std::string dir_;
  mm::apps::GrayScottConfig cfg_;
  Layout layout_;
  std::vector<Outcome> results_;  // one per round
};

// ---------------------------------------------------------------------------
// kv_zipf: small random reads through the B-tree's latch-free funnel.

class KvZipf : public Workload {
 public:
  static constexpr std::uint64_t kKeys = 20'000;  // ~2.2 MB of leaves
  static constexpr std::uint64_t kWarmupOps = 1'000;
  static constexpr std::uint64_t kOpsPerRound = 10'000;  // per client
  static constexpr int kRoundsPerSession = 10;
  static constexpr double kTheta = 0.99;
  static constexpr double kReadFrac = 0.9;
  static constexpr std::uint64_t kCacheNodes = 64;

  KvZipf(std::uint64_t seed, const std::string&) {
    layout_.nodes = 2;
    layout_.ranks_per_node = 1;
    layout_.page_size = 4096;  // one B-tree node per page
    layout_.service.tier_grants = {
        {mm::sim::TierKind::kDram, mm::MEGABYTES(64)}};
    layout_.backend_scheme = "";
    // The op streams are generated here, once; every session replays them.
    const int nranks = layout_.ranks();
    const std::uint64_t total = kWarmupOps + kRoundsPerSession * kOpsPerRound;
    final_version_.assign(kKeys, 0);
    for (std::uint64_t i = 0; i < kKeys; ++i) AllowValue(i, 0);
    streams_.resize(nranks);
    for (int rank = 0; rank < nranks; ++rank) {
      const std::string tag = std::to_string(rank);
      mm::apps::ZipfianGenerator zipf(kKeys, kTheta,
                                      DeriveSeed(seed, "kv/zipf/" + tag));
      mm::Rng mix(DeriveSeed(seed, "kv/opmix/" + tag));
      auto& ops = streams_[rank];
      ops.reserve(total);
      for (std::uint64_t j = 0; j < total; ++j) {
        Op op;
        op.item = zipf.Next();
        op.update = mix.NextDouble() >= kReadFrac;
        if (op.update) {
          // Writers touch only the keys they own (item % nranks == rank),
          // so every key has one writer and a known final version.
          const std::uint64_t n = static_cast<std::uint64_t>(nranks);
          op.item = op.item - op.item % n + static_cast<std::uint64_t>(rank);
          if (op.item >= kKeys) op.item -= n;
          op.version = j + 1;
          final_version_[op.item] = op.version;
          AllowValue(op.item, op.version);
        }
        ops.push_back(op);
      }
    }
  }

  const Layout& layout() const override { return layout_; }
  int rounds_per_session() const override { return kRoundsPerSession; }
  std::uint64_t dataset_bytes() const override { return 0; }
  std::string scan_key() const override { return ""; }
  std::size_t scan_elem_size() const override { return sizeof(double); }
  std::map<std::string, std::string> Describe() const override {
    return {{"keys", std::to_string(kKeys)},
            {"record_bytes", std::to_string(sizeof(mm::apps::KvRecord))},
            {"ops_per_client_per_round", std::to_string(kOpsPerRound)},
            {"rounds_per_load", std::to_string(kRoundsPerSession)},
            {"warmup_ops_per_client", std::to_string(kWarmupOps)},
            {"zipf_theta", std::to_string(kTheta)},
            {"read_fraction", std::to_string(kReadFrac)},
            {"tree_cache_nodes", std::to_string(kCacheNodes)},
            {"loop", "closed, one client rank per node"}};
  }

  // One session: a fresh service and bulk-loaded tree, a warm-up, then one
  // measured round per entry of `traced`, each a slice of the op streams.
  std::vector<Round> RunSession(const std::vector<bool>& traced) override {
    const int nranks = layout_.ranks();
    const std::size_t nrounds = traced.size();
    struct PerRank {
      std::vector<Round> rounds;  // latencies and sim time
      std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;  // key, digest
      std::uint64_t attempted = 0, failed = 0;
      std::vector<std::string> errors;
    };
    std::vector<PerRank> per(nranks);
    for (PerRank& me : per) me.rounds.resize(nrounds);
    std::vector<Round> out(nrounds);
    double setup_end = 0;
    std::vector<double> w0(nrounds), c0(nrounds);
    std::vector<MetricsSnapshot> snap0(nrounds);

    const double t0 = WallNow();
    auto cluster = mm::sim::Cluster::PaperTestbed(layout_.nodes);
    auto svc = std::make_unique<Service>(cluster.get(), layout_.service);
    RunResult run = RunJob(*cluster, layout_, [&](RankContext& ctx) {
      Communicator comm(&ctx);
      const int rank = comm.rank();
      PerRank& me = per[rank];
      mm::index::BTreeOptions opt;
      opt.max_nodes = 1 << 16;
      opt.cache_bytes = kCacheNodes * 4096;
      mm::apps::KvTree tree(*svc, ctx, "mem://perfbench_kv", opt);
      if (rank == 0) tree.Create();
      comm.Barrier();
      tree.Refresh();
      for (std::uint64_t i = rank; i < kKeys; i += nranks) {
        tree.Put(KeyOf(i), mm::apps::MakeRecord(KeyOf(i), 0));
      }
      comm.Barrier();
      tree.Refresh();
      if (rank == 0) setup_end = WallNow();

      const auto& ops = streams_[rank];
      auto run_ops = [&](std::uint64_t begin, std::uint64_t end, Round* r) {
        for (std::uint64_t j = begin; j < end; ++j) {
          const Op& op = ops[j];
          const std::uint64_t key = KeyOf(op.item);
          ++me.attempted;
          if (op.update) {
            const mm::apps::KvRecord rec = mm::apps::MakeRecord(key, op.version);
            const auto a = std::chrono::steady_clock::now();
            tree.Put(key, rec);
            const auto b = std::chrono::steady_clock::now();
            if (r != nullptr) {
              r->update_wall_us.Add(
                  std::chrono::duration<double, std::micro>(b - a).count());
            }
          } else {
            mm::apps::KvRecord rec{};
            const double s = ctx.clock().now();
            const auto a = std::chrono::steady_clock::now();
            const bool hit = tree.Get(key, &rec);
            const auto b = std::chrono::steady_clock::now();
            if (r != nullptr) {
              r->get_wall_us.Add(
                  std::chrono::duration<double, std::micro>(b - a).count());
              r->get_sim_us.Add((ctx.clock().now() - s) * 1e6);
            }
            me.seen.emplace_back(key, hit ? mm::apps::RecordDigest(rec) : 0);
          }
        }
      };
      run_ops(0, kWarmupOps, nullptr);
      for (std::size_t k = 0; k < nrounds; ++k) {
        Round& mine = me.rounds[k];
        comm.Barrier();
        if (rank == 0) {
          if (traced[k]) snap0[k] = svc->TelemetrySnapshot().totals;
          c0[k] = CpuNow();
          w0[k] = WallNow();
        }
        comm.Barrier();
        const double sim0 = ctx.clock().now();
        const std::uint64_t begin = kWarmupOps + k * kOpsPerRound;
        run_ops(begin, begin + kOpsPerRound, &mine);
        mine.sim_s = ctx.clock().now() - sim0;
        comm.Barrier();
        if (rank == 0) {
          out[k].wall_s = WallNow() - w0[k];
          out[k].cpu_s = CpuNow() - c0[k];
          if (traced[k]) {
            out[k].telemetry =
                Delta(svc->TelemetrySnapshot().totals, snap0[k]);
          }
        }
      }

      // Oracle: after everyone's last write, each key reads back as the
      // record its one writer wrote last.
      comm.Barrier();
      tree.Refresh();
      for (std::uint64_t i = rank; i < kKeys; i += nranks) {
        ++me.attempted;
        mm::apps::KvRecord rec{};
        const mm::apps::KvRecord want =
            mm::apps::MakeRecord(KeyOf(i), final_version_[i]);
        if (!tree.Get(KeyOf(i), &rec) ||
            std::memcmp(&rec, &want, sizeof(rec)) != 0) {
          ++me.failed;
          if (me.errors.size() < 4) {
            me.errors.push_back("kv: key index " + std::to_string(i) +
                                " does not read back its last version");
          }
        }
      }
      comm.Barrier();
    });
    svc.reset();

    for (std::size_t k = 0; k < nrounds; ++k) {
      Round& r = out[k];
      r.traced = traced[k];
      r.ops = static_cast<double>(kOpsPerRound) * nranks;
      for (PerRank& me : per) {
        const Round& mine = me.rounds[k];
        r.get_wall_us.Append(mine.get_wall_us);
        r.update_wall_us.Append(mine.update_wall_us);
        r.get_sim_us.Append(mine.get_sim_us);
        r.sim_s = std::max(r.sim_s, mine.sim_s);
      }
    }
    // Session-wide outcomes (warm-up, oracle reads) land on the first round.
    Round& first = out[0];
    first.has_setup = true;
    first.setup_s = setup_end - t0;
    for (PerRank& me : per) {
      first.attempted += me.attempted;
      first.failed += me.failed;
      first.errors.insert(first.errors.end(), me.errors.begin(), me.errors.end());
      // Every Get saw a value some writer wrote to that key.
      for (const auto& [key, digest] : me.seen) {
        if (digest == 0 || allowed_.count(mm::HashCombine(key, digest)) == 0) {
          ++first.failed;
          if (first.errors.size() < 8) {
            first.errors.push_back("kv: Get returned a value never written to its key");
          }
        }
      }
    }
    if (!run.ok()) {
      FailRound(&first, "kv job: " + (run.oom ? "simulated OOM" : run.error));
    }
    return out;
  }

  void Verify(std::vector<Round>*) override {}  // checked inside each round

 private:
  struct Op {
    std::uint64_t item = 0;
    std::uint64_t version = 0;
    bool update = false;
  };

  static std::uint64_t KeyOf(std::uint64_t item) { return mm::MixU64(item + 1); }

  void AllowValue(std::uint64_t item, std::uint64_t version) {
    const std::uint64_t key = KeyOf(item);
    allowed_.insert(mm::HashCombine(
        key, mm::apps::RecordDigest(mm::apps::MakeRecord(key, version))));
  }

  Layout layout_;
  std::vector<std::vector<Op>> streams_;  // per client rank
  std::vector<std::uint64_t> final_version_;
  std::unordered_set<std::uint64_t> allowed_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& dir) {
  if (name == "kmeans_ooc") return std::make_unique<KMeansOoc>(seed, dir);
  if (name == "grayscott_ckpt") return std::make_unique<GrayScottCkpt>(seed, dir);
  if (name == "kv_zipf") return std::make_unique<KvZipf>(seed, dir);
  return nullptr;
}

}  // namespace perfbench
