#include "mm/apps/random_forest.h"

#include <algorithm>

#include "mm/core/transaction.h"
#include "mm/core/vector.h"
#include "mm/util/hash.h"

namespace mm::apps {

namespace {

float Feature(const Particle& p, int f) {
  switch (f) {
    case 0:
      return p.pos.x;
    case 1:
      return p.pos.y;
    case 2:
      return p.pos.z;
    case 3:
      return p.vel.x;
    case 4:
      return p.vel.y;
    default:
      return p.vel.z;
  }
}

struct Sample {
  Particle p;
  int label = 0;
};

/// Per-(tree, rank) bagging seed. The bag consumes the RandTx stream for
/// this seed directly (so the prefetcher's prediction matches the accesses
/// exactly); draws that land on held-out test indices are discarded.
std::uint64_t BagSeed(std::uint64_t seed, int tree, int rank) {
  return MixU64(seed ^ MixU64((static_cast<std::uint64_t>(tree) << 40) ^
                              (static_cast<std::uint64_t>(rank) << 20)));
}

/// Deterministic bagging indices: positions of the RandTx stream over the
/// local partition, with test indices skipped (shrinks the bag ~20%).
std::vector<std::uint64_t> BagIndices(std::uint64_t job_seed,
                                      std::uint64_t bag_seed,
                                      std::uint64_t lo, std::uint64_t n,
                                      std::uint64_t count) {
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t pos = 0; pos < count && n > 0; ++pos) {
    std::uint64_t idx = core::RandTx::ElementOf(bag_seed, pos, lo, lo + n);
    if (IsTestIndex(idx, job_seed)) continue;
    out.push_back(idx);
  }
  return out;
}

double GiniOfCounts(const double* counts, int num_classes, double total) {
  if (total <= 0) return 0.0;
  double sum_sq = 0;
  for (int c = 0; c < num_classes; ++c) {
    double p = counts[c] / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

/// Grows one tree data-parallel over the per-rank samples. All ranks make
/// identical decisions (thresholds and gains come from all-reduced
/// statistics), so the returned tree is identical everywhere.
RfTree BuildTree(comm::Communicator& comm, const std::vector<Sample>& samples,
                 const RfConfig& cfg, std::uint64_t tree_seed,
                 int num_classes) {
  comm::RankContext& ctx = comm.ctx();
  RfTree tree;
  tree.nodes.push_back(RfNode{});
  std::vector<int> node_of(samples.size(), 0);
  std::vector<int> active = {0};
  const int fsub = std::min(cfg.feature_subset, kRfFeatures);

  for (int depth = 0; depth < cfg.max_depth && !active.empty(); ++depth) {
    const int na = static_cast<int>(active.size());
    // Random feature subset per active node (identical on every rank).
    std::vector<std::vector<int>> feats(na);
    for (int a = 0; a < na; ++a) {
      for (int j = 0; j < fsub; ++j) {
        feats[a].push_back(static_cast<int>(
            MixU64(tree_seed ^ MixU64((static_cast<std::uint64_t>(active[a])
                                       << 16) ^
                                      j)) %
            kRfFeatures));
      }
    }
    std::unordered_map<int, int> node_slot;
    for (int a = 0; a < na; ++a) node_slot[active[a]] = a;

    // Round 1: per (node, feature) mean threshold.
    std::vector<double> sums(na * fsub, 0.0), counts(na * fsub, 0.0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      auto it = node_slot.find(node_of[i]);
      if (it == node_slot.end()) continue;
      int a = it->second;
      for (int j = 0; j < fsub; ++j) {
        sums[a * fsub + j] += Feature(samples[i].p, feats[a][j]);
        counts[a * fsub + j] += 1.0;
      }
    }
    ctx.Compute(ctx.costs().entropy_update_s *
                static_cast<double>(samples.size() * fsub));
    comm.AllReduce(sums, [](double x, double y) { return x + y; });
    comm.AllReduce(counts, [](double x, double y) { return x + y; });

    // Round 2: per (node, feature, class) left/total histograms.
    const int stride = fsub * num_classes;
    std::vector<double> left(na * stride, 0.0), total(na * num_classes, 0.0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      auto it = node_slot.find(node_of[i]);
      if (it == node_slot.end()) continue;
      int a = it->second;
      int c = samples[i].label;
      total[a * num_classes + c] += 1.0;
      for (int j = 0; j < fsub; ++j) {
        double thr = counts[a * fsub + j] > 0
                         ? sums[a * fsub + j] / counts[a * fsub + j]
                         : 0.0;
        if (Feature(samples[i].p, feats[a][j]) <= thr) {
          left[a * stride + j * num_classes + c] += 1.0;
        }
      }
    }
    ctx.Compute(ctx.costs().entropy_update_s *
                static_cast<double>(samples.size() * fsub));
    comm.AllReduce(left, [](double x, double y) { return x + y; });
    comm.AllReduce(total, [](double x, double y) { return x + y; });

    // Decide each active node: best gain or leaf.
    std::vector<int> next_active;
    for (int a = 0; a < na; ++a) {
      RfNode& node = tree.nodes[active[a]];
      double n_total = 0;
      int majority = 0;
      double best_count = -1;
      for (int c = 0; c < num_classes; ++c) {
        n_total += total[a * num_classes + c];
        if (total[a * num_classes + c] > best_count) {
          best_count = total[a * num_classes + c];
          majority = c;
        }
      }
      node.label = majority;
      if (n_total < static_cast<double>(cfg.min_node)) continue;
      double parent_gini = GiniOfCounts(&total[a * num_classes], num_classes,
                                        n_total);
      double best_gain = 0;
      int best_feature = -1;
      double best_thr = 0;
      for (int j = 0; j < fsub; ++j) {
        double nl = 0;
        for (int c = 0; c < num_classes; ++c) {
          nl += left[a * stride + j * num_classes + c];
        }
        double nr = n_total - nl;
        if (nl <= 0 || nr <= 0) continue;
        double gini_l =
            GiniOfCounts(&left[a * stride + j * num_classes], num_classes, nl);
        std::vector<double> right(num_classes);
        for (int c = 0; c < num_classes; ++c) {
          right[c] = total[a * num_classes + c] -
                     left[a * stride + j * num_classes + c];
        }
        double gini_r = GiniOfCounts(right.data(), num_classes, nr);
        double gain =
            parent_gini - (nl * gini_l + nr * gini_r) / n_total;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = feats[a][j];
          best_thr = counts[a * fsub + j] > 0
                         ? sums[a * fsub + j] / counts[a * fsub + j]
                         : 0.0;
        }
      }
      if (best_feature < 0 || best_gain < cfg.min_gain) continue;
      int left = static_cast<int>(tree.nodes.size());
      node.feature = best_feature;
      node.threshold = static_cast<float>(best_thr);
      node.left = left;
      node.right = left + 1;
      // push_back may reallocate: `node` is dead after this line.
      tree.nodes.push_back(RfNode{});
      tree.nodes.push_back(RfNode{});
      next_active.push_back(left);
      next_active.push_back(left + 1);
    }
    // Reassign samples to children.
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const RfNode& node = tree.nodes[node_of[i]];
      if (node.feature >= 0) {
        node_of[i] = Feature(samples[i].p, node.feature) <= node.threshold
                         ? node.left
                         : node.right;
      }
    }
    active = std::move(next_active);
  }
  return tree;
}

int ForestPredict(const std::vector<RfTree>& trees, const Particle& p,
                  int num_classes) {
  std::vector<int> votes(num_classes, 0);
  for (const RfTree& t : trees) {
    ++votes[t.Predict(p)];
  }
  return static_cast<int>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

/// Visits every local sample once: calls fn(index, sample) for each index
/// in [lo, lo+n_local). The Mega implementation walks pinned spans; the
/// Spark one indexes its materialized partition.
using EvalSweepFn =
    std::function<void(const std::function<void(std::uint64_t, const Sample&)>&)>;

/// Shared driver once samples and evaluation accessors exist.
RfResult RunForest(comm::Communicator& comm, const RfConfig& cfg,
                   std::uint64_t n_local, const EvalSweepFn& for_each_eval,
                   const std::function<std::vector<Sample>(int tree)>& bag) {
  comm::RankContext& ctx = comm.ctx();
  RfResult result;

  // num_classes: all ranks scan one bag to find the max label.
  auto first_bag = bag(0);
  int max_label = 0;
  for (const Sample& s : first_bag) max_label = std::max(max_label, s.label);
  std::vector<int> ml = {max_label};
  comm.AllReduce(ml, [](int a, int b) { return std::max(a, b); });
  int num_classes = ml[0] + 1;

  for (int t = 0; t < cfg.num_trees; ++t) {
    auto samples = t == 0 ? std::move(first_bag) : bag(t);
    std::uint64_t tree_seed = MixU64(cfg.seed ^ MixU64(t + 1));
    result.trees.push_back(
        BuildTree(comm, samples, cfg, tree_seed, num_classes));
  }

  // Evaluate on the local partition (train/test split by index hash).
  // The traversal compute is charged once for the whole sweep.
  std::uint64_t train_ok = 0, train_n = 0, test_ok = 0, test_n = 0;
  for_each_eval([&](std::uint64_t i, const Sample& s) {
    int pred = ForestPredict(result.trees, s.p, num_classes);
    if (IsTestIndex(i, cfg.seed)) {
      ++test_n;
      if (pred == s.label) ++test_ok;
    } else {
      ++train_n;
      if (pred == s.label) ++train_ok;
    }
  });
  ctx.Compute(ctx.costs().kdtree_visit_s * cfg.max_depth * cfg.num_trees *
              static_cast<double>(n_local));
  std::vector<std::uint64_t> agg = {train_ok, train_n, test_ok, test_n};
  comm.AllReduce(agg, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  result.train_accuracy =
      agg[1] > 0 ? static_cast<double>(agg[0]) / agg[1] : 0;
  result.test_accuracy = agg[3] > 0 ? static_cast<double>(agg[2]) / agg[3] : 0;
  return result;
}

}  // namespace

int RfTree::Predict(const Particle& p) const {
  int n = 0;
  while (nodes[n].feature >= 0) {
    n = Feature(p, nodes[n].feature) <= nodes[n].threshold ? nodes[n].left
                                                           : nodes[n].right;
  }
  return nodes[n].label;
}

RfResult RandomForestMega(core::Service& service, comm::Communicator& comm,
                          const std::string& dataset_key,
                          const std::string& labels_key, const RfConfig& cfg) {
  comm::RankContext& ctx = comm.ctx();
  core::VectorOptions vopts;
  vopts.page_size = cfg.page_size;
  vopts.pcache_bytes = cfg.pcache_bytes;
  vopts.mode = core::CoherenceMode::kReadOnlyGlobal;
  core::Vector<Particle> pts(service, ctx, dataset_key, 0, vopts);
  core::Vector<std::int32_t> labels(service, ctx, labels_key, 0, vopts);
  MM_CHECK_MSG(pts.size() == labels.size(),
               "dataset and labels sizes disagree");
  pts.Pgas(comm.rank(), comm.size());
  const std::uint64_t lo = pts.local_off(), n_local = pts.local_size();
  std::uint64_t total = pts.size();
  std::uint64_t per_rank = std::max<std::uint64_t>(
      1, total / (static_cast<std::uint64_t>(cfg.oob) * comm.size()));

  auto bag = [&](int tree) {
    std::uint64_t bag_seed = BagSeed(cfg.seed, tree, comm.rank());
    auto idx = BagIndices(cfg.seed, bag_seed, lo, n_local, per_rank);
    std::vector<Sample> out;
    out.reserve(idx.size());
    // Pseudo-random reads declared through RandTx with the SAME seed the
    // bag consumes, so the prefetcher predicts exactly these accesses
    // (paper §III-A: "factors such as randomness seeds ... guide data
    // organization decisions").
    auto txp = pts.RandTxBegin(lo, lo + std::max<std::uint64_t>(1, n_local),
                               per_rank, core::MM_READ_ONLY, bag_seed);
    auto txl = labels.RandTxBegin(lo, lo + std::max<std::uint64_t>(1, n_local),
                                  per_rank, core::MM_READ_ONLY, bag_seed);
    for (std::uint64_t i : idx) {
      out.push_back(Sample{pts.Read(i), labels.Read(i)});
    }
    pts.TxEnd();
    labels.TxEnd();
    return out;
  };
  // Evaluation is a sequential pass: declare it and walk pinned spans so
  // each page is resolved once for both vectors.
  EvalSweepFn for_each_eval =
      [&](const std::function<void(std::uint64_t, const Sample&)>& fn) {
        if (n_local == 0) return;
        auto txp = pts.SeqTxBegin(lo, n_local, core::MM_READ_ONLY);
        auto txl = labels.SeqTxBegin(lo, n_local, core::MM_READ_ONLY);
        const std::uint64_t chunk = pts.MaxSpanElems();
        for (std::uint64_t s = lo; s < lo + n_local; s += chunk) {
          std::uint64_t e = std::min(lo + n_local, s + chunk);
          auto pspan = pts.ReadSpan(s, e);
          auto lspan = labels.ReadSpan(s, e);
          for (std::uint64_t i = s; i < e; ++i) {
            fn(i, Sample{pspan[i], lspan[i]});
          }
        }
        pts.TxEnd();
        labels.TxEnd();
      };

  auto result = RunForest(comm, cfg, n_local, for_each_eval, bag);
  result.faults = pts.faults() + labels.faults();
  return result;
}

RfResult RandomForestSpark(sparklike::SparkEnv& env, comm::Communicator& comm,
                           const std::string& dataset_key,
                           const std::string& labels_key, const RfConfig& cfg) {
  auto rdd = sparklike::Rdd<Particle>::Load(env, comm, dataset_key);
  auto lab = sparklike::Rdd<std::int32_t>::Load(env, comm, labels_key);
  MM_CHECK(rdd.size() == lab.size());
  std::uint64_t n_local = rdd.size();
  std::vector<std::uint64_t> tot = {n_local};
  comm.AllReduce(tot, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  std::uint64_t total = tot[0];
  std::uint64_t base = total / comm.size(), rem = total % comm.size();
  std::uint64_t lo = comm.rank() * base +
                     std::min<std::uint64_t>(comm.rank(), rem);
  std::uint64_t per_rank = std::max<std::uint64_t>(
      1, total / (static_cast<std::uint64_t>(cfg.oob) * comm.size()));

  auto bag = [&](int tree) {
    env.ChargeDispatch();
    // Spark materializes the bagged sample as a new partition.
    env.Alloc(per_rank * sizeof(Sample));
    auto idx = BagIndices(cfg.seed, BagSeed(cfg.seed, tree, comm.rank()), lo,
                          n_local, per_rank);
    std::vector<Sample> out;
    out.reserve(idx.size());
    for (std::uint64_t i : idx) {
      out.push_back(Sample{rdd.data()[i - lo], lab.data()[i - lo]});
    }
    env.Free(per_rank * sizeof(Sample));
    return out;
  };
  EvalSweepFn for_each_eval =
      [&](const std::function<void(std::uint64_t, const Sample&)>& fn) {
        for (std::uint64_t i = lo; i < lo + n_local; ++i) {
          fn(i, Sample{rdd.data()[i - lo], lab.data()[i - lo]});
        }
      };
  comm::RankContext& ctx = comm.ctx();
  // JVM factor on the evaluation/bagging compute.
  auto result = RunForest(comm, cfg, n_local, for_each_eval, bag);
  ctx.Compute(ctx.costs().jvm_dispatch_s * cfg.num_trees);
  return result;
}

}  // namespace mm::apps
