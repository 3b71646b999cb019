#ifndef HCD_CORE_JULIENNE_H_
#define HCD_CORE_JULIENNE_H_

#include "core/core_decomposition.h"
#include "graph/graph.h"

namespace hcd {

/// Bucket-based parallel core decomposition in the style of Julienne/GBBS
/// (the paper's second state-of-the-art baseline: its experiments report
/// the smaller runtime of PKC and GBBS). Vertices live in lazy buckets
/// keyed by current degree; each level-k round pops the k-bucket frontier,
/// peels it in parallel, and re-buckets the decremented neighbors. Unlike
/// PKC's level-synchronous full scans this does O(m) total bucket work
/// instead of O(n * k_max) scanning, which wins when k_max is large.
CoreDecomposition JulienneCoreDecomposition(const Graph& graph);

}  // namespace hcd

#endif  // HCD_CORE_JULIENNE_H_
