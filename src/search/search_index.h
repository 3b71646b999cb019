#ifndef HCD_SEARCH_SEARCH_INDEX_H_
#define HCD_SEARCH_SEARCH_INDEX_H_

#include <span>
#include <vector>

#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"
#include "search/metrics.h"
#include "search/pbks.h"
#include "search/preprocess.h"

namespace hcd {

/// Suffix-argmax table over the levels of a frozen index under one fixed
/// per-node score: AtLeast(k) is the best node of level >= k, where a
/// higher score wins and equal scores go to the lower node id — exactly
/// the first-node-wins order of a scan over node ids keeping only strictly
/// greater scores (scores must not be NaN). Built in O(N + G) by walking
/// the level groups downwards. It is indexed by level group, not by k, so
/// the level values of an untrusted snapshot cannot size it; a lookup is a
/// binary search over the G group levels.
class LevelArgmax {
 public:
  LevelArgmax() = default;
  /// `scores` holds one score per node of `index`.
  LevelArgmax(const FlatHcdIndex& index, std::span<const double> scores);

  /// Best node of level >= k; kInvalidNode when no node reaches level k.
  TreeNodeId AtLeast(uint32_t k) const;

 private:
  std::vector<uint32_t> levels_;  ///< [G] group levels, strictly descending
  std::vector<TreeNodeId> best_;  ///< [G] best node of level >= levels_[g]
};

/// Build-phase product of PBKS (Section IV-D), replacing the old lazy
/// SubgraphSearcher: the constructor runs the coreness-count preprocessing
/// and *eagerly* computes both the type-A and the type-B primary values, so
/// the object is deeply const afterwards — no mutable caches, no
/// first-caller races. Any number of threads may score metrics against one
/// SearchIndex concurrently (see SearchInto below); that is the serve-phase
/// seam QuerySnapshot (engine/snapshot.h) is built on.
///
/// The constructor only reads its arguments; it keeps no references, so the
/// index stays valid even if the graph is destroyed (scoring needs only the
/// frozen FlatHcdIndex alongside it). The constructor also scores every node
/// under every metric once and keeps one LevelArgmax per metric, so each
/// argmax query ("best k-core of level >= k under M") is a table lookup.
/// Construction records the "search.preprocess", "search.primary_a",
/// "search.primary_b" and "search.argmax_tables" stages.
class SearchIndex {
 public:
  SearchIndex(const Graph& graph, const CoreDecomposition& cd,
              const FlatHcdIndex& index);

  SearchIndex(const SearchIndex&) = delete;
  SearchIndex& operator=(const SearchIndex&) = delete;

  /// Whole-graph n and m, captured at construction for the metrics that
  /// need them (cut ratio, modularity).
  const GraphGlobals& globals() const { return globals_; }

  /// Accumulated primary values per tree node: n(S), 2*m(S), b(S) for
  /// type-A; additionally Delta(S), t(S) filled in for type-B.
  const std::vector<PrimaryValues>& TypeAPrimary() const { return type_a_; }
  const std::vector<PrimaryValues>& TypeBPrimary() const { return type_b_; }

  /// The primary-value table `metric` scores against.
  const std::vector<PrimaryValues>& PrimaryFor(Metric metric) const {
    return IsTypeB(metric) ? type_b_ : type_a_;
  }

  /// Score of `node` under `metric`, bit-identical to SearchInto's.
  double Score(Metric metric, TreeNodeId node) const {
    return EvaluateMetric(metric, PrimaryFor(metric)[node], globals_);
  }

  /// Best node of level >= k under `metric` (k == 0: SearchInto's best
  /// node); kInvalidNode when no node reaches level k. O(log G).
  TreeNodeId BestAtLeast(Metric metric, uint32_t k) const {
    return argmax_[static_cast<size_t>(metric)].AtLeast(k);
  }

 private:
  GraphGlobals globals_;
  std::vector<PrimaryValues> type_a_;
  std::vector<PrimaryValues> type_b_;
  std::vector<LevelArgmax> argmax_;  ///< indexed by Metric value
};

/// Caller-owned scratch for the serve-phase scoring path. One workspace per
/// query thread; reusing it across queries keeps the hot path free of
/// allocation (the scores vector is grown once to the node count and then
/// only overwritten).
struct SearchWorkspace {
  std::vector<double> scores;  ///< per-node scores of the last query
};

/// Best node of one serve-phase query; the full score table lives in the
/// caller's SearchWorkspace.
struct SearchHit {
  TreeNodeId best_node = kInvalidNode;
  double best_score = 0.0;
};

/// Serve-phase scoring: evaluates `metric` on every tree node into
/// `ws->scores` and returns the best node. Reads only const state, so any
/// number of threads may call it on one (index, sidx) pair concurrently,
/// each with its own workspace. Runs serially on the calling thread — the
/// serve phase takes its parallelism from concurrent queries, not from
/// OpenMP inside one query — and produces scores bit-identical to
/// ScoreNodes (pbks.h), whose parallel loop evaluates the same per-node
/// expression.
SearchHit SearchInto(const FlatHcdIndex& index, const SearchIndex& sidx,
                     Metric metric, SearchWorkspace* ws);

}  // namespace hcd

#endif  // HCD_SEARCH_SEARCH_INDEX_H_
