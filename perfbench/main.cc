// perfbench: the repository benchmark binary. perfbench/run.py builds it
// and turns its report (the last line of stdout, one JSON object) into the
// benchmark result. Usage:
//
//   mmbench --workload <kmeans_ooc|grayscott_ckpt|kv_zipf> --seed N
//           --seconds S --trace <0|1> --dir <scratch dir> [--commit SHA]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "mm/util/hash.h"

#ifndef MMBENCH_BUILD_TYPE
#define MMBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& stream) {
  return mm::HashCombine(mm::MixU64(seed), mm::Fnv1a64(stream));
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * (s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (rank - lo) * (s[hi] - s[lo]);
}

namespace {

// Sessions stop once the measured phases add up to --seconds, but never
// before kMinSetups full set-ups (set-up is reported as their median) and
// never past the point where another session would end the run after
// kBudgetS.
constexpr int kMinSetups = 3;
constexpr int kMaxRounds = 400;
constexpr double kBudgetS = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--dir") {
      a->dir = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();  // drop padding NULs
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

// ---- minimal JSON writer ----

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Object {
 public:
  Object& Raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(k) + ": " + json;
    return *this;
  }
  Object& Str(const std::string& k, const std::string& v) { return Raw(k, Quote(v)); }
  Object& Number(const std::string& k, double v) { return Raw(k, Num(v)); }
  Object& Metric(const std::string& k, double v, const std::string& unit) {
    return Raw(k, "{\"value\": " + Num(v) + ", \"unit\": " + Quote(unit) + "}");
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median of one field over the traced or the untraced rounds.
double MedianOf(const std::vector<Round>& rounds, double Round::*field,
                bool traced) {
  Samples s;
  for (const Round& r : rounds) {
    if (r.traced == traced) s.Add(r.*field);
  }
  return s.Median();
}

/// Per-round mean of traced-round telemetry.
struct TracedCounts {
  std::map<std::string, double> counter, hist_count, hist_sum;
  double user_bytes = 0;
  static double Get(const std::map<std::string, double>& m, const std::string& k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  }
  double C(const std::string& k) const { return Get(counter, k); }
};

TracedCounts MeanTraced(const std::vector<Round>& rounds) {
  TracedCounts t;
  double n = 0;
  for (const Round& r : rounds) {
    if (!r.traced) continue;
    ++n;
    for (const auto& [k, v] : r.telemetry.counters) t.counter[k] += v;
    for (const auto& [k, h] : r.telemetry.histograms) {
      t.hist_count[k] += h.count;
      t.hist_sum[k] += h.sum;
    }
    t.user_bytes += r.user_bytes_written;
  }
  if (n == 0) return t;
  for (auto* m : {&t.counter, &t.hist_count, &t.hist_sum}) {
    for (auto& [k, v] : *m) v /= n;
  }
  t.user_bytes /= n;
  return t;
}

/// Per-layer metrics of a traced run, plus the layer-separation self-check.
std::string PerLayer(const Args& args, const Workload& w,
                     const std::vector<Round>& rounds, const ProbeResult& probe,
                     Object* samples, std::vector<std::string>* errors) {
  const TracedCounts t = MeanTraced(rounds);
  const Layout& layout = w.layout();
  const double page = static_cast<double>(layout.page_size);
  const double traced_wall = MedianOf(rounds, &Round::wall_s, true);
  const double untraced_wall = MedianOf(rounds, &Round::wall_s, false);
  // est_share = count x probe p50 / (wall x rank threads): an estimate of
  // the layer's share of the ranks' time, not a measured self time.
  const double thread_s = traced_wall * layout.ranks();
  auto p = [&](const std::string& name, double pct) {
    auto it = probe.ns.find(name);
    return it == probe.ns.end() ? 0.0 : it->second.Percentile(pct);
  };
  auto share = [&](double count, double ns) { return Ratio(count * ns * 1e-9, thread_s); };

  const double pc_hit = t.C("mm.pcache.hit_count"), pc_miss = t.C("mm.pcache.miss_count");
  const double rp_hit = t.C("mm.readpath.fastpath_hit_count");
  const double rp_attempts = rp_hit + t.C("mm.readpath.fallback_count");
  const double faults = t.C("mm.service.fault_count");
  auto hc = [&](const std::string& k) { return TracedCounts::Get(t.hist_count, k); };
  auto hs = [&](const std::string& k) { return TracedCounts::Get(t.hist_sum, k); };
  const double commits = hc("mm.task.write_partial_ns");
  const double st_read = t.C("mm.stager.read_bytes"), st_write = t.C("mm.stager.write_bytes");
  const double journal = t.C("mm.ckpt.journal_bytes");
  const double descents = t.C("mm.index.descent_count");
  const double node_reads = t.C("mm.index.node_read_count");
  const double nvme_read = t.C("mm.tier.nvme_read_bytes");

  Object m;
  m.Metric("core.vector.scan_ns_per_elem", p("scan_elem", 50), "ns");
  m.Metric("core.pcache.hit_ratio", Ratio(pc_hit, pc_hit + pc_miss), "ratio");
  m.Metric("core.pcache.evictions", t.C("mm.pcache.eviction_count"), "count");
  m.Metric("core.pcache.writeback_bytes", t.C("mm.pcache.writeback_bytes"), "B");
  m.Metric("core.prefetch.useful_ratio",
           Ratio(t.C("mm.prefetch.useful_count"), t.C("mm.prefetch.issued_count")), "ratio");
  m.Metric("core.readpath.attempts", rp_attempts, "count");
  m.Metric("core.readpath.hit_ratio", Ratio(rp_hit, rp_attempts), "ratio");
  m.Metric("core.readpath.retry_rate", Ratio(t.C("mm.readpath.retry_count"), rp_attempts), "ratio");
  m.Metric("core.readpath.p50_ns", p("readpath", 50), "ns");
  m.Metric("core.readpath.p99_ns", p("readpath", 99), "ns");
  m.Metric("core.readpath.est_share", share(rp_hit, p("readpath", 50)), "ratio");
  m.Metric("core.queue.faults", faults, "count");
  m.Metric("core.queue.tasks", t.C("mm.task.executed_count"), "count");
  m.Metric("core.queue.p50_ns", p("queue", 50), "ns");
  m.Metric("core.queue.p99_ns", p("queue", 99), "ns");
  m.Metric("core.queue.fault_sim_us",
           Ratio(hs("mm.service.fault_latency_ns"), hc("mm.service.fault_latency_ns")) / 1e3,
           "us");
  m.Metric("core.queue.est_share", share(faults, p("queue", 50)), "ratio");
  m.Metric("core.commit.count", commits, "count");
  m.Metric("core.commit.p50_ns", p("commit", 50), "ns");
  m.Metric("core.commit.p99_ns", p("commit", 99), "ns");
  m.Metric("core.commit.est_share", share(commits, p("commit", 50)), "ratio");
  m.Metric("storage.metadata.p50_ns", p("metadata", 50), "ns");
  m.Metric("storage.metadata.p99_ns", p("metadata", 99), "ns");
  m.Metric("storage.buffer.get_p50_ns", p("buffer_get", 50), "ns");
  m.Metric("storage.buffer.demotions", t.C("mm.tier.demotion_count"), "count");
  for (const char* tier : {"dram", "nvme"}) {
    const std::string k = tier;
    m.Metric("storage.tier." + k + "_read_bytes", t.C("mm.tier." + k + "_read_bytes"), "B");
    m.Metric("storage.tier." + k + "_write_bytes", t.C("mm.tier." + k + "_write_bytes"), "B");
    m.Metric("storage.tier." + k + "_get_p50_ns", p("tier_" + k + "_get", 50), "ns");
  }
  // Every verified page read (optimistic hit or fault) and every commit
  // computes one page CRC.
  m.Metric("util.crc32.page_ns", p("crc32", 50), "ns");
  m.Metric("util.crc32.est_share", share(rp_hit + faults + commits, p("crc32", 50)), "ratio");
  m.Metric("storage.stager.read_bytes", st_read, "B");
  m.Metric("storage.stager.write_bytes", st_write, "B");
  m.Metric("storage.stager.write_amp", Ratio(st_write + journal, t.user_bytes), "ratio");
  m.Metric("storage.stager.read_p50_ns", p("stager_read", 50), "ns");
  m.Metric("storage.stager.write_p50_ns", p("stager_write", 50), "ns");
  m.Metric("storage.stager.est_share",
           share(st_read / page, p("stager_read", 50)) +
               share(st_write / page, p("stager_write", 50)),
           "ratio");
  m.Metric("ckpt.journal.bytes", journal, "B");
  m.Metric("ckpt.journal.append_p50_ns", p("journal_append", 50), "ns");
  m.Metric("ckpt.journal.est_share",
           share(journal / (page + 64), p("journal_append", 50)), "ratio");
  m.Metric("comm.barrier_p50_ns", p("barrier", 50), "ns");
  m.Metric("comm.allreduce_p50_ns", p("allreduce", 50), "ns");
  m.Metric("comm.pingpong_p50_ns", p("pingpong", 50), "ns");
  m.Metric("index.btree.get_p50_ns", p("btree_get", 50), "ns");
  m.Metric("index.btree.put_p50_ns", p("btree_put", 50), "ns");
  m.Metric("index.btree.descents", descents, "count");
  m.Metric("index.btree.restart_rate", Ratio(t.C("mm.index.restart_count"), descents), "ratio");
  m.Metric("index.btree.node_reads_per_descent", Ratio(node_reads, descents), "ratio");
  m.Metric("index.btree.pcache_share", Ratio(t.C("mm.index.pcache_hit_count"), node_reads), "ratio");
  m.Metric("index.btree.scache_share", Ratio(t.C("mm.index.scache_probe_hit_count"), node_reads), "ratio");
  m.Metric("index.btree.queue_share", Ratio(t.C("mm.index.queue_fallback_count"), node_reads), "ratio");
  m.Metric("trace.overhead_ratio", Ratio(traced_wall, untraced_wall), "ratio");
  for (const auto& [name, ns] : probe.ns) {
    samples->Number("probe." + name, static_cast<double>(ns.count()));
  }
  samples->Number("probe.readpath_hits", static_cast<double>(probe.readpath_probe_hits));

  // Layer-separation self-check: each workload must still load the layer
  // it exists for, and leave alone the layers it is meant to bypass.
  const std::string& wl = args.workload;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) errors->push_back("layer self-check: " + what);
  };
  expect((journal > 0) == (wl == "grayscott_ckpt"),
         "ckpt.journal.bytes must be > 0 on grayscott_ckpt only");
  if (wl == "kmeans_ooc") {
    expect(nvme_read > 0, "storage.tier.nvme_read_bytes must be > 0 on kmeans_ooc");
    expect(st_read >= static_cast<double>(w.dataset_bytes()),
           "storage.stager.read_bytes must cover the dataset on kmeans_ooc");
  }
  if (wl == "kv_zipf") {
    expect(nvme_read == 0, "storage.tier.nvme_read_bytes must be 0 on kv_zipf");
  }
  expect((descents > 0) == (wl == "kv_zipf"),
         "index.btree.descents must be > 0 on kv_zipf only");
  return m.Json();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mmbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dir DIR [--commit SHA]\n");
    return 2;
  }
  const std::string dir =
      args.dir + "/" + args.workload + "." + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code e;
      std::filesystem::remove_all(dir, e);
    }
  } cleanup{dir};

  auto workload = MakeWorkload(args.workload, args.seed, dir);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Untraced runs measure only untraced rounds. Traced runs alternate
  // untraced and traced rounds, so the two medians give the overhead.
  std::vector<Round> rounds;
  const double start = WallNow();
  double measured = 0;
  double peak_rss_mb = 0;
  int setups = 0;
  while (true) {
    std::vector<bool> traced(workload->rounds_per_session());
    for (std::size_t j = 0; j < traced.size(); ++j) {
      traced[j] = args.trace && (rounds.size() + j) % 2 == 1;
    }
    bool failed = false;
    for (Round& r : workload->RunSession(traced)) {
      measured += r.wall_s;
      setups += r.has_setup ? 1 : 0;
      failed = failed || !r.errors.empty();
      rounds.push_back(std::move(r));
    }
    if (peak_rss_mb == 0) {
      // Peak RSS of set-up plus the first session. Later sessions start
      // new rank threads, and the allocator's per-thread arenas would make
      // the peak grow with the number of sessions a run happens to fit.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    const int n = static_cast<int>(rounds.size());
    const double elapsed = WallNow() - start;
    if (failed) break;
    if (setups >= kMinSetups && measured >= args.seconds &&
        (!args.trace || n >= 2)) {
      break;
    }
    if (n >= kMaxRounds || elapsed + elapsed / n * traced.size() > kBudgetS) {
      break;
    }
  }

  workload->Verify(&rounds);

  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  }

  const Layout& layout = workload->layout();
  Object samples;
  samples.Number("rounds", static_cast<double>(rounds.size()));

  // End-to-end metrics come from untraced rounds only.
  Samples get_us, upd_us, get_sim_us, ops_per_s;
  for (const Round& r : rounds) {
    if (r.traced) continue;
    get_us.Append(r.get_wall_us);
    upd_us.Append(r.update_wall_us);
    get_sim_us.Append(r.get_sim_us);
    ops_per_s.Add(Ratio(r.ops, r.wall_s));
  }
  samples.Number("untraced_rounds", static_cast<double>(ops_per_s.count()));
  Object e2e;
  Samples setup_s;
  for (const Round& r : rounds) {
    if (r.has_setup) setup_s.Add(r.setup_s);
  }
  samples.Number("setups", static_cast<double>(setup_s.count()));
  e2e.Metric("setup_s", setup_s.Median(), "s");
  e2e.Metric("wall_s", MedianOf(rounds, &Round::wall_s, false), "s");
  e2e.Metric("cpu_s", MedianOf(rounds, &Round::cpu_s, false), "s");
  e2e.Metric("sim_s", MedianOf(rounds, &Round::sim_s, false), "s");
  e2e.Metric("ops_per_s", ops_per_s.Median(), "1/s");
  e2e.Metric("peak_rss_mb", peak_rss_mb, "MB");

  Object detail;
  detail.Metric("error_rate", Ratio(static_cast<double>(failed), attempted), "ratio");
  if (get_us.count() > 0) {
    detail.Metric("get_p50_us", get_us.Percentile(50), "us");
    detail.Metric("get_p99_us", get_us.Percentile(99), "us");
    detail.Metric("update_p99_us", upd_us.Percentile(99), "us");
    detail.Metric("get_p99_sim_us", get_sim_us.Percentile(99), "us");
    samples.Number("get_wall_us", static_cast<double>(get_us.count()));
    samples.Number("update_wall_us", static_cast<double>(upd_us.count()));
    samples.Number("get_sim_us", static_cast<double>(get_sim_us.count()));
  }

  std::string per_layer = "{}";
  if (args.trace) {
    ProbeResult probe = RunProbes(*workload, args.seed, dir);
    for (const std::string& e : probe.errors) errors.push_back("probe: " + e);
    per_layer = PerLayer(args, *workload, rounds, probe, &samples, &errors);
  }

  Object context;
  context.Number("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("cpu_model", CpuModel())
      .Str("compiler", std::string("gcc-compatible ") + __VERSION__)
      .Str("build_type", MMBENCH_BUILD_TYPE)
      .Str("mm_telemetry", MM_TELEMETRY_ENABLED ? "on" : "off")
      .Str("git_commit", args.commit)
      .Number("seed", static_cast<double>(args.seed))
      .Number("nodes", layout.nodes)
      .Number("ranks_per_node", layout.ranks_per_node)
      .Number("rank_threads", layout.ranks())
      .Number("service_workers_per_node",
              layout.service.workers_per_node + layout.service.low_latency_workers)
      .Number("page_bytes", static_cast<double>(layout.page_size))
      .Number("measured_seconds_target", args.seconds);
  for (const auto& [k, v] : workload->Describe()) context.Str(k, v);

  std::string errs = "[";
  for (std::size_t i = 0; i < errors.size() && i < 16; ++i) {
    errs += (i == 0 ? "" : ", ") + Quote(errors[i]);
  }
  errs += "]";
  if (!errors.empty() && failed == 0) failed = 1;  // a failed check fails the run

  std::string per_round = "[";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    Object o;
    o.Raw("traced", r.traced ? "true" : "false")
        .Raw("has_setup", r.has_setup ? "true" : "false")
        .Number("setup_s", r.setup_s)
        .Number("wall_s", r.wall_s)
        .Number("cpu_s", r.cpu_s)
        .Number("sim_s", r.sim_s);
    per_round += (i == 0 ? "" : ", ") + o.Json();
  }
  per_round += "]";

  Object out;
  out.Str("workload", args.workload)
      .Raw("correct", errors.empty() ? "true" : "false")
      .Number("attempted", static_cast<double>(std::max<std::uint64_t>(attempted, 1)))
      .Number("failed", static_cast<double>(failed))
      .Raw("errors", errs)
      .Raw("context", context.Json())
      .Raw("end_to_end", e2e.Json())
      .Raw("detail", detail.Json())
      .Raw("per_layer", per_layer)
      .Raw("samples", samples.Json())
      .Raw("rounds", per_round);
  std::printf("%s\n", out.Json().c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
