// Shared declarations of the repository benchmark (perfbench/README.md).
//
// One binary runs one workload per invocation. A run is a sequence of
// sessions; a session sets the workload up (timed as set-up), then runs one
// or more measured phases ("rounds") and checks their outputs. Untraced
// rounds feed the end-to-end metrics; traced rounds additionally snapshot
// the service's telemetry around the measured phase, and after the rounds a
// probe pass times calls into each layer's public API from outside the
// library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mm/core/options.h"
#include "mm/telemetry/metrics.h"

namespace perfbench {

/// Wall-clock seconds on a monotonic clock.
double WallNow();
/// User + system CPU seconds of the whole process (every thread).
double CpuNow();

/// Derives an independent 64-bit stream seed from the run's one seed.
std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& stream);

/// Sample set with linear-interpolated percentiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  std::size_t count() const { return v_.size(); }
  /// p in [0, 100]; 0 for an empty set.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }

 private:
  std::vector<double> v_;
};

/// The simulated job geometry and service configuration of a workload.
struct Layout {
  int nodes = 2;
  int ranks_per_node = 2;
  std::uint64_t page_size = 64 * 1024;
  mm::core::ServiceOptions service;
  /// Stager scheme of the workload's backend ("posix", "shdf"), or "" when
  /// the workload keeps no persistent object.
  std::string backend_scheme;
  int ranks() const { return nodes * ranks_per_node; }
};

/// What one round measured.
struct Round {
  bool traced = false;
  /// True on the first round of a session that did the full set-up.
  bool has_setup = false;
  double setup_s = 0;
  double wall_s = 0;  // measured phase
  double cpu_s = 0;   // process CPU during the measured phase
  double sim_s = 0;   // max virtual seconds over ranks in the measured phase
  double ops = 0;     // operations completed in the measured phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// kv_zipf only: per-operation latencies of the measured phase.
  Samples get_wall_us, update_wall_us, get_sim_us;
  /// Traced rounds only: telemetry counters of the measured phase (delta).
  mm::telemetry::MetricsSnapshot telemetry;
  /// grayscott_ckpt only: user bytes checkpointed (write amplification base).
  double user_bytes_written = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const Layout& layout() const = 0;
  /// Measured phases one session runs after its set-up.
  virtual int rounds_per_session() const { return 1; }
  /// Runs one session: set-up, then one round per entry of `traced`, with
  /// the checks that need no reference. Never throws; failures land in
  /// Round::errors/failed.
  virtual std::vector<Round> RunSession(const std::vector<bool>& traced) = 0;
  /// Checks every round's outputs against a single-threaded reference.
  /// Runs after the rounds, so the reference's memory stays out of the
  /// measured peak RSS.
  virtual void Verify(std::vector<Round>* rounds) = 0;
  /// Bytes of the workload's input dataset (0 when it has none).
  virtual std::uint64_t dataset_bytes() const = 0;
  /// Key of the persistent vector the vector-scan probe reads, or "" to
  /// scan the probe's own scratch vector of doubles.
  virtual std::string scan_key() const = 0;
  /// Element size of scan_key()'s vector: sizeof(apps::Particle) or
  /// sizeof(double).
  virtual std::size_t scan_elem_size() const = 0;
  /// Extra context entries for the result (sizes, seeds).
  virtual std::map<std::string, std::string> Describe() const = 0;
};

/// Factory; nullptr for an unknown name. `dir` is the run's scratch
/// directory (inside the checkout).
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& dir);

/// Layer timings taken by calling each layer's public API directly.
struct ProbeResult {
  std::map<std::string, Samples> ns;  // probe name -> per-call wall ns
  std::uint64_t readpath_probe_hits = 0;  // optimistic probe reads served
  std::vector<std::string> errors;
};

/// Runs every layer probe on a fresh service built from `layout`.
ProbeResult RunProbes(const Workload& workload, std::uint64_t seed,
                      const std::string& dir);

}  // namespace perfbench
