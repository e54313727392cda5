#include "mm/comm/launch.h"

#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "mm/sim/oom.h"
#include "mm/util/logging.h"
#include "mm/util/mutex.h"

namespace mm::comm {

RunResult RunRanks(sim::Cluster& cluster, int num_ranks, int ranks_per_node,
                   const std::function<void(RankContext&)>& body) {
  return RunRanks(cluster, num_ranks, ranks_per_node, WorldOptions{}, body);
}

RunResult RunRanks(sim::Cluster& cluster, int num_ranks, int ranks_per_node,
                   WorldOptions options,
                   const std::function<void(RankContext&)>& body) {
  World world(&cluster, num_ranks, ranks_per_node, options);
  RunResult result;
  result.rank_times.assign(num_ranks, 0.0);
  mm::Mutex result_mu;

  std::vector<std::thread> threads;
  threads.reserve(num_ranks);
  for (int rank = 0; rank < num_ranks; ++rank) {
    threads.emplace_back([&, rank] {
      // Named before the body runs, so /proc/<pid>/task/*/comm tells rank
      // threads from service workers (names cap at 15 characters).
      char name[16];
      std::snprintf(name, sizeof(name), "rank%d", rank);
      pthread_setname_np(pthread_self(), name);
      RankContext ctx(&world, rank);
      // Log lines from this rank carry its virtual clock and node id
      // ("[t=12.345s n3 WARN] ..."). The clock is thread-confined to this
      // rank, so reading it from the logging callback is safe.
      ScopedLogContext log_ctx([&ctx] { return ctx.clock().now(); },
                               static_cast<int>(ctx.node()));
      try {
        body(ctx);
        mm::MutexLock lock(result_mu);
        result.rank_times[rank] = ctx.clock().now();
      } catch (const sim::SimOutOfMemoryError& e) {
        mm::MutexLock lock(result_mu);
        result.oom = true;
        result.rank_times[rank] = ctx.clock().now();
        MM_DEBUG("launch") << "rank " << rank << " OOM-killed: " << e.what();
      } catch (const RankDeathError& e) {
        // Fault injection killed this rank; not a job error. The dead
        // rank's time stops at its death, survivors carry the job.
        mm::MutexLock lock(result_mu);
        result.dead_ranks.push_back(rank);
        result.rank_times[rank] = ctx.clock().now();
        MM_DEBUG("launch") << "rank " << rank << " fault-killed: " << e.what();
      } catch (const std::exception& e) {
        mm::MutexLock lock(result_mu);
        if (result.error.empty()) {
          result.error = std::string("rank ") + std::to_string(rank) + ": " +
                         e.what();
        }
        result.rank_times[rank] = ctx.clock().now();
      }
    });
  }
  for (auto& t : threads) t.join();

  std::sort(result.dead_ranks.begin(), result.dead_ranks.end());
  for (sim::SimTime t : result.rank_times) {
    result.max_time = std::max(result.max_time, t);
  }
  return result;
}

}  // namespace mm::comm
