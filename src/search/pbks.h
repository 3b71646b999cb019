#ifndef HCD_SEARCH_PBKS_H_
#define HCD_SEARCH_PBKS_H_

#include <span>
#include <vector>

#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"
#include "search/metrics.h"
#include "search/preprocess.h"

namespace hcd {

/// Result of a subgraph search: the best k-core (as a tree node of the HCD)
/// plus the score of every k-core. Node ids are FlatHcdIndex preorder ids —
/// the whole search layer runs on the frozen index, never on the builder
/// forest.
struct SearchResult {
  TreeNodeId best_node = kInvalidNode;
  double best_score = 0.0;
  /// scores[i]: score of node i's original k-core.
  std::vector<double> scores;
};

/// The groups the per-vertex tally kernels below charge into. `order` lists
/// every vertex of the graph exactly once, with each group's vertices
/// contiguous; `group[v]` names v's group. PBKS groups by tree node (the
/// frozen index's preorder vertex array and its tid); FindBestK (best_k.h)
/// groups by coreness level (VertexRank::sorted and the coreness array).
struct TallyGroups {
  std::span<const VertexId> order;
  std::span<const uint32_t> group;
};

/// Work counters of one type-B tally pass (the counters of the
/// "search.primary_b" stage).
struct TypeBStats {
  uint64_t forward_edges = 0;   ///< oriented edges; always m
  uint64_t max_out_degree = 0;  ///< largest forward adjacency list
  uint64_t triangles = 0;       ///< triangles enumerated
};

/// Algorithm 4 lines 2-9 without the accumulation: adds each group's own
/// n(S), 2*m(S) and b(S) contributions into `(*tallies)[group]`. Each
/// thread walks chunks of `groups.order` and adds to a group once per run
/// of its vertices, so tallies need no per-vertex atomics. A group's own
/// boundary contribution can be negative; it wraps (see PrimaryValues).
/// O(n) after preprocessing.
void TallyTypeA(const Graph& graph, const CorenessNeighborCounts& pre,
                const TallyGroups& groups,
                std::vector<PrimaryValues>* tallies);

/// Algorithm 5 lines 2-15 without the accumulation: adds each group's own
/// triangles and triplets into `(*tallies)[group]`. Triangles are
/// enumerated once each over the edges oriented by (coreness, degree, id)
/// and charged at their lowest corner; a wedge goes to its lowest-coreness
/// member, as in the paper. O(m^1.5) work: a vertex has at most
/// c(v) + sqrt(2m) forward edges (docs/ALGORITHMS.md). The forward
/// adjacency lives in page-backed scratch for the duration of the call.
/// `stats` may be null.
void TallyTypeB(const Graph& graph, const CoreDecomposition& cd,
                const TallyGroups& groups, std::vector<PrimaryValues>* tallies,
                TypeBStats* stats);

/// Type-A primary values of every k-core (Algorithm 4 without the metric
/// evaluation): TallyTypeA over the index's tree nodes, then one
/// reverse-preorder fold up the tree. Entry i holds the fully accumulated
/// n(S), 2*m(S), b(S) of node i's original k-core. `index` must place
/// every vertex of `graph`. O(n) work after preprocessing.
std::vector<PrimaryValues> PbksTypeAPrimary(const Graph& graph,
                                            const CoreDecomposition& cd,
                                            const FlatHcdIndex& index,
                                            const CorenessNeighborCounts& pre);

/// Type-B primary values of every k-core (Algorithm 5): TallyTypeB over the
/// index's tree nodes, then one reverse-preorder fold up the tree. Entry i
/// holds Delta(S) and t(S) of node i's original k-core. `index` must place
/// every vertex of `graph`. O(m^1.5) work. `stats` may be null.
std::vector<PrimaryValues> PbksTypeBPrimary(const Graph& graph,
                                            const CoreDecomposition& cd,
                                            const FlatHcdIndex& index,
                                            TypeBStats* stats = nullptr);

/// Evaluates `metric` on every node's accumulated primary values and
/// returns all scores plus the best k-core (Algorithm 3's final step).
SearchResult ScoreNodes(const FlatHcdIndex& index, Metric metric,
                        const std::vector<PrimaryValues>& accumulated,
                        const GraphGlobals& globals);

/// One-call parallel subgraph search (PBKS, Section IV-D): preprocessing,
/// the right primary-value computation for `metric`, and scoring. Callers
/// evaluating several metrics should build a SearchIndex (search_index.h)
/// once and score against it, reusing the preprocessing and primary values.
SearchResult PbksSearch(const Graph& graph, const CoreDecomposition& cd,
                        const FlatHcdIndex& index, Metric metric);

}  // namespace hcd

#endif  // HCD_SEARCH_PBKS_H_
