#include "search/best_k.h"

#include <vector>

#include "hcd/vertex_rank.h"
#include "search/pbks.h"
#include "search/preprocess.h"

namespace hcd {

BestKResult FindBestK(const Graph& graph, const CoreDecomposition& cd,
                      Metric metric) {
  const uint32_t num_levels = cd.k_max + 1;
  BestKResult result;
  result.scores.assign(num_levels, 0.0);
  result.per_k.assign(num_levels, {});
  if (graph.NumVertices() == 0) return result;

  // The PBKS tally kernels keyed by coreness level: in vertex-rank order
  // each k-shell is one contiguous group, so per_k[k] first holds the
  // contributions of the vertices of coreness k.
  const VertexRank vr = ComputeVertexRank(cd);
  const TallyGroups levels{vr.sorted, cd.coreness};
  TallyTypeA(graph, PreprocessCorenessCounts(graph, cd), levels,
             &result.per_k);
  if (IsTypeB(metric)) {
    TallyTypeB(graph, cd, levels, &result.per_k, /*stats=*/nullptr);
  }

  // Suffix sums: K_k = union of shells with coreness >= k.
  for (uint32_t k = num_levels - 1; k-- > 0;) {
    result.per_k[k] += result.per_k[k + 1];
  }

  const GraphGlobals globals{graph.NumVertices(), graph.NumEdges()};
  for (uint32_t k = 0; k < num_levels; ++k) {
    result.scores[k] = EvaluateMetric(metric, result.per_k[k], globals);
    if (k == 0 || result.scores[k] > result.best_score) {
      result.best_k = k;
      result.best_score = result.scores[k];
    }
  }
  return result;
}

}  // namespace hcd
