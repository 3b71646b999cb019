#ifndef HCD_HCD_LCPS_H_
#define HCD_HCD_LCPS_H_

#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "hcd/forest.h"

namespace hcd {

/// Serial HCD construction by Level Component Priority Search (Matula &
/// Beck; the paper's state-of-the-art serial baseline, Section I).
///
/// The search repeatedly visits the unvisited neighbor of the visited
/// region with the highest priority pri(w) = max over visited neighbors v
/// of min(c(w), c(v)). The max-priority order guarantees that when the
/// frontier priority drops to p, every k-core with k > p touching the
/// visited region is completely visited, so the tree can be maintained with
/// a stack of open nodes:
///  - visiting w with priority p closes every open node with level > p;
///    a closed node's parent is the node below it on the stack, except for
///    the last-closed node, which is adopted by w's node when w opens a new
///    level between p and the closed level;
///  - w then joins the open node at level c(w), opening it if necessary.
///
/// Priorities live in bucket arrays with lazy deletion, the cost profile
/// the paper attributes to LCPS ("multiple dynamic arrays").
///
/// Requires `cd` to be the core decomposition of `graph` (e.g. from
/// BzCoreDecomposition). O(m) time. Records a "construction" stage
/// (counters: nodes).
HcdForest LcpsBuild(const Graph& graph, const CoreDecomposition& cd);

}  // namespace hcd

#endif  // HCD_HCD_LCPS_H_
