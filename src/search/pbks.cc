#include "search/pbks.h"

#include <algorithm>

#include "common/check.h"
#include "common/mapped_file.h"
#include "parallel/omp_utils.h"

namespace hcd {
namespace {

/// Vertices per chunk of the tally walks. Type-A work is O(1) per vertex;
/// type-B work grows with the degree, so its chunks are small enough for
/// the dynamic schedule to spread a dense core over the threads.
constexpr size_t kTypeAChunk = 4096;
constexpr size_t kTypeBChunk = 64;

inline uint64_t Choose2(uint64_t x) { return x * (x - 1) / 2; }

void AtomicAdd(const PrimaryValues& add, PrimaryValues* out) {
#pragma omp atomic
  out->n_s += add.n_s;
#pragma omp atomic
  out->edges2 += add.edges2;
#pragma omp atomic
  out->boundary += add.boundary;
#pragma omp atomic
  out->triangles += add.triangles;
#pragma omp atomic
  out->triplets += add.triplets;
}

/// Worksharing loop over `groups.order` in chunks of `chunk` vertices; call
/// it inside a parallel region. `visit(v, acc)` adds v's own-group
/// contributions to the run accumulator `acc`, and each run of one group's
/// vertices inside a chunk is added to `(*tallies)[group]` once. A run with
/// other groups on both sides inside its chunk is the whole group (groups
/// are contiguous in the order), so no other thread touches its entry and
/// the add is plain; only a chunk's first and last run can share their
/// group with another chunk, and add atomically.
template <typename Visit>
void ForEachRun(const TallyGroups& groups, size_t chunk,
                std::vector<PrimaryValues>* tallies, Visit&& visit) {
  const size_t size = groups.order.size();
  const int64_t num_chunks = static_cast<int64_t>((size + chunk - 1) / chunk);
#pragma omp for schedule(dynamic, 1)
  for (int64_t c = 0; c < num_chunks; ++c) {
    const size_t begin = static_cast<size_t>(c) * chunk;
    const size_t end = std::min(size, begin + chunk);
    for (size_t i = begin; i < end;) {
      const size_t run_begin = i;
      const uint32_t g = groups.group[groups.order[i]];
      PrimaryValues acc;
      do {
        visit(groups.order[i], &acc);
      } while (++i < end && groups.group[groups.order[i]] == g);
      if (run_begin > begin && i < end) {
        (*tallies)[g] += acc;
      } else {
        AtomicAdd(acc, &(*tallies)[g]);
      }
    }
  }
}

/// The tree nodes of `index` as tally groups: the preorder vertex array
/// keeps each node's own vertices contiguous.
TallyGroups NodeGroups(const Graph& graph, const FlatHcdIndex& index) {
  HCD_CHECK(index.NumVertices() == graph.NumVertices() &&
            index.data().vertices.size() == graph.NumVertices())
      << "the index must place every vertex of the graph";
  return {index.data().vertices, index.data().tid};
}

/// Bottom-up tree accumulation (Algorithm 3 lines 6-9) as one
/// reverse-preorder sweep: a parent precedes its children in preorder
/// (Adopt validates it), so every node is final before it is added to its
/// parent.
void FoldUp(const FlatHcdIndex& index, std::vector<PrimaryValues>* t) {
  for (TreeNodeId node = index.NumNodes(); node-- > 1;) {
    const TreeNodeId pa = index.Parent(node);
    if (pa != kInvalidNode) (*t)[pa] += (*t)[node];
  }
}

}  // namespace

void TallyTypeA(const Graph& graph, const CorenessNeighborCounts& pre,
                const TallyGroups& groups,
                std::vector<PrimaryValues>* tallies) {
  HCD_CHECK_EQ(groups.order.size(), graph.NumVertices());
  // Each vertex counts the edges whose lowest-rank endpoint it is: all
  // edges to greater coreness, and half of the equal-coreness edges (each
  // such edge is charged by both endpoints, hence the doubled-edge
  // bookkeeping). Its boundary share is lt - gt.
#pragma omp parallel
  ForEachRun(groups, kTypeAChunk, tallies,
             [&](VertexId v, PrimaryValues* acc) {
               const uint64_t gt = pre.greater[v];
               const uint64_t eq = pre.equal[v];
               acc->n_s += 1;
               acc->edges2 += 2 * gt + eq;
               acc->boundary += graph.Degree(v) - 2 * gt - eq;
             });
}

void TallyTypeB(const Graph& graph, const CoreDecomposition& cd,
                const TallyGroups& groups, std::vector<PrimaryValues>* tallies,
                TypeBStats* stats) {
  const VertexId n = graph.NumVertices();
  HCD_CHECK_EQ(groups.order.size(), n);
  // The orientation: u follows v when (c(u), d(u), u) > (c(v), d(v), v).
  // key[v] packs coreness above degree, so one load per neighbor yields
  // both the coreness the triplets need and the orientation.
  ScratchPages key_pages(static_cast<size_t>(n) * sizeof(uint64_t));
  const std::span<uint64_t> key = key_pages.As<uint64_t>();
  ParallelFor<VertexId>(0, n, [&](VertexId v) {
    key[v] = uint64_t{cd.coreness[v]} << 32 | graph.Degree(v);
  });
  auto follows = [&](VertexId u, VertexId v) {
    return key[u] > key[v] || (key[u] == key[v] && u > v);
  };

  // --- Triplets (lines 8-15), plus each vertex's forward degree. Wedges
  // centered at v whose two arms both reach coreness >= c(v) go to v's
  // group; a wedge whose lowest arm has coreness k < c(v) goes to the group
  // of a neighbor of coreness k. Those charges land outside the walked run,
  // so they go to `below`, merged at the end. Consecutive vertices mostly
  // charge level k to the same group (an ancestor of their node), so each
  // thread holds one pending sum per level and adds it atomically only
  // when that level's group changes.
  ScratchPages offset_pages((static_cast<size_t>(n) + 1) * sizeof(EdgeIndex));
  const std::span<EdgeIndex> offsets = offset_pages.As<EdgeIndex>();
  std::vector<uint64_t> below(tallies->size(), 0);
  VertexId max_out = 0;
#pragma omp parallel
  {
    std::vector<VertexId> cnt(cd.k_max + 1, 0);
    std::vector<VertexId> rep(cd.k_max + 1, 0);
    std::vector<uint32_t> held_group(cd.k_max + 1, 0);
    std::vector<uint64_t> held(cd.k_max + 1, 0);
    auto flush = [&](uint32_t k) {
      if (held[k] == 0) return;
#pragma omp atomic
      below[held_group[k]] += held[k];
      held[k] = 0;
    };
    VertexId thread_max_out = 0;
    ForEachRun(groups, kTypeBChunk, tallies,
               [&](VertexId v, PrimaryValues* acc) {
                 const uint32_t cv = static_cast<uint32_t>(key[v] >> 32);
                 uint32_t lowest = cv;
                 uint64_t reach = 0;  // neighbors of coreness >= k
                 VertexId out = 0;
                 for (VertexId u : graph.Neighbors(v)) {
                   const uint32_t cu = static_cast<uint32_t>(key[u] >> 32);
                   if (cu < cv) {
                     ++cnt[cu];
                     rep[cu] = u;
                     lowest = std::min(lowest, cu);
                   } else {
                     ++reach;
                     out += follows(u, v);
                   }
                 }
                 offsets[v + 1] = out;
                 thread_max_out = std::max(thread_max_out, out);
                 acc->triplets += Choose2(reach);
                 for (uint32_t k = cv; k-- > lowest;) {
                   const uint64_t c = cnt[k];
                   if (c == 0) continue;
                   const uint32_t g = groups.group[rep[k]];
                   if (g != held_group[k]) {
                     flush(k);
                     held_group[k] = g;
                   }
                   held[k] += Choose2(c) + reach * c;
                   reach += c;
                   cnt[k] = 0;
                 }
               });
    for (uint32_t k = 0; k <= cd.k_max; ++k) flush(k);
#pragma omp critical
    max_out = std::max(max_out, thread_max_out);
  }
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  HCD_DCHECK(offsets[n] == graph.NumEdges());

  // --- Forward adjacency: each edge once, at its earlier endpoint, with
  // neighbors ascending.
  ScratchPages target_pages(offsets[n] * sizeof(VertexId));
  const std::span<VertexId> targets = target_pages.As<VertexId>();
  ParallelForDynamic<VertexId>(0, n, [&](VertexId v) {
    EdgeIndex pos = offsets[v];
    for (VertexId u : graph.Neighbors(v)) {
      if (follows(u, v)) targets[pos++] = u;
    }
  });
  auto forward = [&](VertexId v) {
    return targets.subspan(offsets[v], offsets[v + 1] - offsets[v]);
  };

  // --- Triangles (lines 2-7): (v, u, w) with v -> u -> w and v -> w, found
  // once, at v, the earliest corner. Its group is also that of the
  // lowest-vertex-rank corner: both have the triangle's lowest coreness,
  // and adjacent vertices of equal coreness share their tree node (and
  // their level).
  uint64_t triangles = 0;
#pragma omp parallel reduction(+ : triangles)
  {
    std::vector<uint8_t> mark(n, 0);
    ForEachRun(groups, kTypeBChunk, tallies,
               [&](VertexId v, PrimaryValues* acc) {
                 const std::span<const VertexId> out_v = forward(v);
                 for (VertexId u : out_v) mark[u] = 1;
                 uint64_t found = 0;
                 for (VertexId u : out_v) {
                   for (VertexId w : forward(u)) found += mark[w];
                 }
                 for (VertexId u : out_v) mark[u] = 0;
                 acc->triangles += found;
                 triangles += found;
               });
  }

  for (size_t g = 0; g < below.size(); ++g) (*tallies)[g].triplets += below[g];
  if (stats != nullptr) {
    stats->forward_edges = offsets[n];
    stats->max_out_degree = max_out;
    stats->triangles = triangles;
  }
}

std::vector<PrimaryValues> PbksTypeAPrimary(
    const Graph& graph, const CoreDecomposition& /*cd*/,
    const FlatHcdIndex& index, const CorenessNeighborCounts& pre) {
  std::vector<PrimaryValues> t(index.NumNodes());
  TallyTypeA(graph, pre, NodeGroups(graph, index), &t);
  FoldUp(index, &t);
  return t;
}

std::vector<PrimaryValues> PbksTypeBPrimary(const Graph& graph,
                                            const CoreDecomposition& cd,
                                            const FlatHcdIndex& index,
                                            TypeBStats* stats) {
  std::vector<PrimaryValues> t(index.NumNodes());
  TallyTypeB(graph, cd, NodeGroups(graph, index), &t, stats);
  FoldUp(index, &t);
  return t;
}

SearchResult ScoreNodes(const FlatHcdIndex& index, Metric metric,
                        const std::vector<PrimaryValues>& accumulated,
                        const GraphGlobals& globals) {
  SearchResult result;
  result.scores.resize(index.NumNodes());
#pragma omp parallel for schedule(static)
  for (int64_t i = 0; i < static_cast<int64_t>(index.NumNodes()); ++i) {
    result.scores[i] = EvaluateMetric(metric, accumulated[i], globals);
  }
  for (TreeNodeId i = 0; i < index.NumNodes(); ++i) {
    if (result.best_node == kInvalidNode ||
        result.scores[i] > result.best_score) {
      result.best_node = i;
      result.best_score = result.scores[i];
    }
  }
  return result;
}

SearchResult PbksSearch(const Graph& graph, const CoreDecomposition& cd,
                        const FlatHcdIndex& index, Metric metric) {
  const GraphGlobals globals{graph.NumVertices(), graph.NumEdges()};
  if (IsTypeB(metric)) {
    return ScoreNodes(index, metric, PbksTypeBPrimary(graph, cd, index),
                      globals);
  }
  const CorenessNeighborCounts pre = PreprocessCorenessCounts(graph, cd);
  return ScoreNodes(index, metric, PbksTypeAPrimary(graph, cd, index, pre),
                    globals);
}

}  // namespace hcd
