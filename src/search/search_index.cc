#include "search/search_index.h"

#include <algorithm>

#include "common/telemetry.h"

namespace hcd {

LevelArgmax::LevelArgmax(const FlatHcdIndex& index,
                         std::span<const double> scores) {
  const size_t groups = index.NumLevelGroups();
  levels_.reserve(groups);
  best_.reserve(groups);
  TreeNodeId best = kInvalidNode;
  for (size_t g = 0; g < groups; ++g) {
    const std::span<const TreeNodeId> group = index.LevelGroup(g);
    for (const TreeNodeId t : group) {
      if (best == kInvalidNode || scores[t] > scores[best] ||
          (scores[t] == scores[best] && t < best)) {
        best = t;
      }
    }
    levels_.push_back(index.Level(group.front()));
    best_.push_back(best);
  }
}

TreeNodeId LevelArgmax::AtLeast(uint32_t k) const {
  // The groups of level >= k form a prefix; its last entry covers them all.
  const size_t prefix =
      std::partition_point(levels_.begin(), levels_.end(),
                           [k](uint32_t level) { return level >= k; }) -
      levels_.begin();
  return prefix == 0 ? kInvalidNode : best_[prefix - 1];
}

SearchIndex::SearchIndex(const Graph& graph, const CoreDecomposition& cd,
                         const FlatHcdIndex& index)
    : globals_{graph.NumVertices(), graph.NumEdges()} {
  {
    // Scoped so the coreness counts are freed before the type-B pass
    // allocates its forward adjacency.
    CorenessNeighborCounts pre;
    {
      ScopedStage stage("search.preprocess");
      pre = PreprocessCorenessCounts(graph, cd);
    }
    ScopedStage stage("search.primary_a");
    type_a_ = PbksTypeAPrimary(graph, cd, index, pre);
    stage.AddCounter("nodes", index.NumNodes());
  }
  {
    ScopedStage stage("search.primary_b");
    TypeBStats stats;
    type_b_ = PbksTypeBPrimary(graph, cd, index, &stats);
    stage.AddCounter("forward_edges", stats.forward_edges);
    stage.AddCounter("max_out_degree", stats.max_out_degree);
    stage.AddCounter("triangles", stats.triangles);
  }
  {
    ScopedStage stage("search.argmax_tables");
    SearchWorkspace ws;
    argmax_.resize(std::size(kAllMetrics));
    for (const Metric metric : kAllMetrics) {
      SearchInto(index, *this, metric, &ws);
      argmax_[static_cast<size_t>(metric)] = LevelArgmax(index, ws.scores);
    }
    stage.AddCounter("nodes", index.NumNodes());
    stage.AddCounter("level_groups", index.NumLevelGroups());
  }
}

SearchHit SearchInto(const FlatHcdIndex& index, const SearchIndex& sidx,
                     Metric metric, SearchWorkspace* ws) {
  const std::vector<PrimaryValues>& primary = sidx.PrimaryFor(metric);
  const TreeNodeId num_nodes = index.NumNodes();
  if (ws->scores.size() != primary.size()) ws->scores.resize(primary.size());
  SearchHit hit;
  for (TreeNodeId i = 0; i < num_nodes; ++i) {
    ws->scores[i] = EvaluateMetric(metric, primary[i], sidx.globals());
    if (hit.best_node == kInvalidNode || ws->scores[i] > hit.best_score) {
      hit.best_node = i;
      hit.best_score = ws->scores[i];
    }
  }
  return hit;
}

}  // namespace hcd
