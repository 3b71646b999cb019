#ifndef HCD_CORE_CORE_DECOMPOSITION_H_
#define HCD_CORE_CORE_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace hcd {

/// Coreness values for one graph (Section II-A): coreness[v] is the largest
/// k such that v belongs to a k-core.
struct CoreDecomposition {
  std::vector<uint32_t> coreness;
  /// Graph degeneracy: the largest k with a non-empty k-core.
  uint32_t k_max = 0;

  uint32_t operator[](VertexId v) const { return coreness[v]; }
};

/// Sizes of the k-shells H_0..H_kmax (|result| == k_max + 1).
std::vector<VertexId> KShellSizes(const CoreDecomposition& cd);

/// Serial Batagelj-Zaversnik peeling, O(m) (reference serial algorithm,
/// "CD" in the paper's Figure 10). Records a "decomposition" stage
/// (counters: k_max).
CoreDecomposition BzCoreDecomposition(const Graph& graph);

/// Parallel PKC-style core decomposition (Kabir & Madduri): level-
/// synchronous peeling with thread-local worklists and atomic degree
/// decrements. A level scans a list of the unpeeled vertices, compacted
/// whenever half of it is peeled, so the scans cost O(n + sum over levels
/// of the unpeeled count) instead of O(n * k_max).
/// Uses the current OpenMP thread count. Records a "decomposition" stage
/// (counters: levels, scanned — the vertex visits of the level scans,
/// k_max).
CoreDecomposition PkcCoreDecomposition(const Graph& graph);

}  // namespace hcd

#endif  // HCD_CORE_CORE_DECOMPOSITION_H_
