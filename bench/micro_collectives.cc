// Microbenchmark of the tree collectives underlying MegaMmap's coherence
// traffic (§III-C "Collective"): virtual cost of Bcast/AllReduce/AllGatherV
// across rank counts and payload sizes. The binomial-tree algorithms should
// show log(p) growth.
//
// Plain executable on the shared BenchReport schema
// (BENCH_micro_collectives.json): per grid point, the virtual seconds of one
// operation (the slowest rank's clock) plus a p50/p99 series across --reps
// runs.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "mm/mega_mmap.h"

namespace {

using namespace mm;

volatile std::size_t g_sink = 0;

/// Runs `op` once on `nranks` fresh ranks; returns the slowest rank's
/// virtual seconds (negative when the run failed).
double RunCollective(int nranks,
                     const std::function<void(comm::Communicator&)>& op) {
  auto cluster = sim::Cluster::PaperTestbed(nranks);
  auto result = comm::RunRanks(*cluster, nranks, 1,
                               [&](comm::RankContext& ctx) {
                                 comm::Communicator comm(&ctx);
                                 op(comm);
                               });
  return result.ok() ? result.max_time : -1.0;
}

struct Case {
  std::string name;
  int nranks;
  std::function<void(comm::Communicator&)> op;
};

std::vector<Case> Grid() {
  std::vector<Case> cases;
  for (int n : {2, 4, 8, 16}) {
    for (std::size_t bytes : {std::size_t{1024}, std::size_t{1} << 20}) {
      cases.push_back({"bcast_p" + std::to_string(n) + "_b" +
                           std::to_string(bytes),
                       n, [bytes](comm::Communicator& comm) {
                         std::vector<char> data;
                         if (comm.rank() == 0) data.assign(bytes, 1);
                         comm.Bcast(data, 0);
                       }});
    }
  }
  for (int n : {2, 4, 8, 16}) {
    for (std::size_t doubles : {std::size_t{16}, std::size_t{4096}}) {
      cases.push_back({"allreduce_p" + std::to_string(n) + "_d" +
                           std::to_string(doubles),
                       n, [doubles](comm::Communicator& comm) {
                         std::vector<double> data(doubles, 1.0);
                         comm.AllReduce(
                             data, [](double a, double b) { return a + b; });
                       }});
    }
  }
  for (int n : {2, 4, 8, 16}) {
    cases.push_back({"allgatherv_p" + std::to_string(n), n,
                     [](comm::Communicator& comm) {
                       std::vector<int> mine(256, comm.rank());
                       g_sink = comm.AllGatherV(mine).size();
                     }});
  }
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 && argv[1][0] != '-' ? argv[1] : "BENCH_micro_collectives.json";
  const bool csv = mmbench::CsvMode(argc, argv);
  const int reps = mmbench::Reps(argc, argv);

  mmbench::BenchReport report("micro_collectives");
  report.Config("reps", reps);
  mm::TablePrinter table({"collective", "virtual_us"});
  for (const Case& c : Grid()) {
    mm::StatAccumulator us;
    for (int r = 0; r < reps; ++r) {
      const double virtual_s = RunCollective(c.nranks, c.op);
      if (virtual_s < 0) {
        std::fprintf(stderr, "%s: run failed\n", c.name.c_str());
        return 1;
      }
      us.Add(virtual_s * 1e6);
    }
    table.AddRow({c.name, mmbench::Fmt(us.Mean())});
    report.Metric(c.name + "_virtual_us", us.Mean());
    report.Series(c.name, us);
  }
  std::printf("%s", table.Render(csv).c_str());
  if (!report.Write(out_path)) return 1;
  return 0;
}
