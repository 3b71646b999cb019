// Live-update path: batch-dynamic coreness maintenance plus incremental
// re-freeze versus rebuilding the hierarchy from scratch, and the hybrid
// adjacency representation underneath it.
//
// Two timed comparisons:
//
//  1. Batch refresh. For batches of 0.1% / 0.5% / 1% of |E| on a
//     many-community graph, time DynamicCoreIndex::ApplyBatch +
//     PlanRebuild + ApplyRebuild against the from-scratch
//     BzCoreDecomposition + PhcdBuild + Freeze an engine without the live
//     path would have to run per batch. Updates are localized to a few
//     communities: tree-granularity splicing (like any incremental
//     rebuild) pays off exactly when churn is concentrated, and a batch
//     spread uniformly over every component dirties every tree by
//     construction. The acceptance target is >= 5x on sub-1% batches.
//
//  2. Adjacency micro. Single-edge inserts of fresh leaves into a large
//     hub under the three hash_degree_threshold regimes: always-sorted
//     (threshold on the far side of the max degree), the hybrid default,
//     and always-hashed (threshold 0). The incoming leaves are isolated
//     (coreness 0), so the coreness maintenance around each insert is
//     O(1) and the measured cost is the hub-side adjacency mutation —
//     an O(degree) vector shift when sorted, O(1) when hashed. The
//     hybrid run should track the hashed one: a hub this size promoted
//     itself to the hash map long before the timed loop.
//
// Both datasets are deliberately modest (the whole binary runs in about
// a second), so HCD_BENCH_SMALL=1 shrinks only the adjacency micro; the
// batch-refresh section always runs at full size (see the note there).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/core_decomposition.h"
#include "core/dynamic.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "hcd/flat_index.h"
#include "hcd/phcd.h"
#include "hcd/rebuild.h"

namespace {

/// `communities` disjoint G(n, m) blocks in one graph: every block is its
/// own hierarchy root, so touching a few blocks leaves the rest of the
/// forest spliceable.
hcd::Graph CommunityGraph(hcd::VertexId communities, hcd::VertexId block_n,
                          uint64_t block_m, uint64_t seed) {
  hcd::GraphBuilder builder;
  for (hcd::VertexId c = 0; c < communities; ++c) {
    const hcd::Graph block = hcd::ErdosRenyiGnm(block_n, block_m, seed + c);
    const hcd::VertexId base = c * block_n;
    for (hcd::VertexId u = 0; u < block_n; ++u) {
      for (const hcd::VertexId v : block.Neighbors(u)) {
        if (u < v) builder.AddEdge(base + u, base + v);
      }
    }
  }
  return std::move(builder).Build(communities * block_n);
}

/// A batch of toggles confined to the first `hot_communities` blocks —
/// concentrated churn, the workload incremental rebuild exists for.
std::vector<hcd::EdgeUpdate> LocalizedBatch(const hcd::DynamicCoreIndex& index,
                                            hcd::Rng& rng, size_t size,
                                            hcd::VertexId hot_communities,
                                            hcd::VertexId block_n) {
  const hcd::VertexId span = hot_communities * block_n;
  std::vector<hcd::EdgeUpdate> batch;
  while (batch.size() < size) {
    const auto c = static_cast<hcd::VertexId>(rng.Uniform(hot_communities));
    const auto u = c * block_n + static_cast<hcd::VertexId>(
                                     rng.Uniform(block_n));
    const auto v = c * block_n + static_cast<hcd::VertexId>(
                                     rng.Uniform(block_n));
    if (u == v || u >= span || v >= span) continue;
    batch.push_back({u, v,
                     index.HasEdge(u, v) ? hcd::EdgeOp::kRemove
                                         : hcd::EdgeOp::kInsert});
  }
  return batch;
}

hcd::CoreDecomposition CdOf(const hcd::DynamicCoreIndex& index) {
  hcd::CoreDecomposition cd;
  cd.coreness = index.CorenessValues();
  cd.k_max = index.KMax();
  return cd;
}

void BenchBatchRefresh() {
  // Not shrunk under HCD_BENCH_SMALL: the whole section runs in under a
  // second, and on a 16x-smaller graph a full rebuild costs ~1ms — less
  // than maintaining any batch against it — which would make the
  // incremental-vs-full rows meaningless for regression tracking.
  const hcd::VertexId communities = 800;
  const hcd::VertexId block_n = 250;
  const uint64_t block_m = 700;
  const hcd::Graph g = CommunityGraph(communities, block_n, block_m, 77);
  std::printf("batch refresh on %u communities (n=%u m=%llu):\n",
              static_cast<unsigned>(communities),
              static_cast<unsigned>(g.NumVertices()),
              static_cast<unsigned long long>(g.NumEdges()));
  std::printf("%-12s | %10s %11s %11s %11s | %8s %8s\n", "batch", "dirty",
              "apply (ms)", "freeze (ms)", "full (ms)", "speedup",
              "spliced");

  // One fixed-size row (the steady-drip case the live path is for) plus
  // two |E|-relative rows. Apply cost scales with the batch; the full
  // rebuild scales with the graph.
  const size_t batch_sizes[] = {
      100, static_cast<size_t>(g.NumEdges() / 1000),
      static_cast<size_t>(g.NumEdges() / 100)};
  uint64_t run = 0;
  for (const size_t batch_size : batch_sizes) {
    // Fresh writer state per batch size so runs are independent.
    hcd::DynamicCoreIndex index(g);
    hcd::FlatHcdIndex flat = Freeze(PhcdBuild(g, CdOf(index)));
    hcd::Rng rng(1001 + run++);
    // Concentrate the batch in ~1 community per 64 updates (at least 2).
    const auto hot = std::max<hcd::VertexId>(
        2, static_cast<hcd::VertexId>(batch_size / 64));
    const std::vector<hcd::EdgeUpdate> batch =
        LocalizedBatch(index, rng, batch_size, std::min(hot, communities),
                       block_n);

    hcd::Timer apply_timer;
    hcd::BatchStats stats;
    const hcd::Status applied = index.ApplyBatch(batch, &stats);
    HCD_CHECK(applied.ok());
    const double apply_seconds = apply_timer.Seconds();
    std::vector<hcd::VertexId> touched = stats.changed_vertices;
    for (const auto& [u, v] : stats.applied_edges) {
      touched.push_back(u);
      touched.push_back(v);
    }
    // Materializing the updated CSR is common ground: the from-scratch
    // pipeline starts from the same graph, so it sits outside both timers.
    const hcd::Graph updated = index.ToGraph();
    const hcd::CoreDecomposition cd = CdOf(index);

    hcd::Timer freeze_timer;
    hcd::RebuildOptions options;
    options.full_rebuild_threshold = 1.1;  // measure the splice itself
    const hcd::RebuildPlan plan = PlanRebuild(flat, touched, options);
    hcd::FlatHcdIndex spliced;
    HCD_CHECK(ApplyRebuild(plan, flat, updated, cd, &spliced).ok());
    const double freeze_seconds = freeze_timer.Seconds();
    const double incr_seconds = apply_seconds + freeze_seconds;

    const double full_seconds = hcd::bench::TimeIt([&] {
      const hcd::CoreDecomposition from_scratch =
          hcd::BzCoreDecomposition(updated);
      hcd::FlatHcdIndex full = Freeze(PhcdBuild(updated, from_scratch));
    });

    char tag[32];
    std::snprintf(tag, sizeof(tag), "%zu (%.2f%%)", batch_size,
                  100.0 * static_cast<double>(batch_size) /
                      static_cast<double>(g.NumEdges()));
    std::printf("%-12s | %9.1f%% %11.2f %11.2f %11.2f | %7.1fx %8s\n", tag,
                plan.dirty_fraction * 100.0, apply_seconds * 1e3,
                freeze_seconds * 1e3, full_seconds * 1e3,
                full_seconds / incr_seconds,
                plan.full_rebuild ? "no" : "yes");
    hcd::bench::ReportBaseline("live_update_incremental",
                               "communities/" + std::to_string(batch_size),
                               1, incr_seconds);
    hcd::bench::ReportBaseline("live_update_full",
                               "communities/" + std::to_string(batch_size),
                               1, full_seconds);
  }
  std::printf("\n");
}

void BenchAdjacency(bool small) {
  // A star over the even vertex ids; the odd ids are isolated and get
  // attached to the hub one edge at a time inside the timed loop. Odd ids
  // interleave with the existing even neighbors, so every sorted insert
  // lands mid-vector and pays the O(degree) shift (ascending fresh ids
  // would all append at the tail for free).
  const hcd::VertexId star_n = small ? 25000 : 100000;
  const size_t inserts = small ? 5000 : 20000;
  hcd::GraphBuilder builder;
  for (hcd::VertexId v = 1; v < star_n; ++v) builder.AddEdge(0, 2 * v);
  const hcd::Graph g = std::move(builder).Build(2 * star_n);
  std::printf("adjacency micro: %zu fresh-leaf inserts into a degree-%u "
              "hub:\n",
              inserts, static_cast<unsigned>(g.MaxDegree()));
  std::printf("%-8s | %12s %14s\n", "mode", "total (ms)", "per-edge (us)");

  struct Mode {
    const char* name;
    uint32_t threshold;
  };
  const Mode modes[] = {{"sorted", 1u << 30},
                        {"hybrid", hcd::DynamicCoreIndex::
                                       kDefaultHashDegreeThreshold},
                        {"hashed", 0}};
  for (const Mode& mode : modes) {
    hcd::DynamicCoreIndex index(g, mode.threshold);
    const auto stride = static_cast<hcd::VertexId>(star_n / inserts);
    const double seconds = hcd::bench::TimeIt([&] {
      for (size_t i = 0; i < inserts; ++i) {
        const auto leaf =
            2 * (static_cast<hcd::VertexId>(i) * stride) + 1;
        HCD_CHECK(index.InsertEdge(0, leaf).ok());
      }
    });
    std::printf("%-8s | %12.2f %14.3f\n", mode.name, seconds * 1e3,
                seconds / static_cast<double>(inserts) * 1e6);
    hcd::bench::ReportBaseline("live_adjacency", mode.name, 1, seconds);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  hcd::bench::PrintHardwareBanner(
      "Live update: batch-dynamic maintenance vs from-scratch rebuild");
  BenchBatchRefresh();
  BenchAdjacency(hcd::bench::SmallBenchRequested());
  return 0;
}
