#ifndef HCD_SEARCH_ELEMENT_SEARCH_H_
#define HCD_SEARCH_ELEMENT_SEARCH_H_

#include <memory>
#include <vector>

#include "common/telemetry.h"
#include "hcd/flat_index.h"
#include "search/search_index.h"

namespace hcd {

/// Caller-owned scratch for element-community materialization. One
/// workspace per query thread; the stamp array is grown once to the graph
/// vertex count and then reused epoch-style, so the hot path never clears
/// it and allocates only into the caller's output vector.
struct ElementWorkspace {
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
};

/// Best community of one element-hierarchy query.
struct ElementHit {
  bool found = false;
  TreeNodeId node = kInvalidNode;
  uint32_t level = 0;
  uint64_t elements = 0;  ///< edges (truss) / triangles (nucleus)
  uint64_t vertices = 0;  ///< distinct member vertices
  double score = 0.0;     ///< density: arity * elements / vertices
};

/// Serve-phase product for element hierarchies (truss / nucleus): the
/// SearchIndex analogue over a kind-tagged FlatHcdIndex. The constructor
/// eagerly computes, per tree node, the distinct-member-vertex count of
/// its community (parallel over nodes with per-thread stamp arrays) and
/// the density score
///
///     density(t) = arity * |elements(t)| / |vertices(t)|
///
/// which for a truss community is exactly its average degree (2m/n), so
/// Densest() reproduces DensestTruss bit-identically, plus a LevelArgmax
/// over the densities that answers DensestAtLeast. The object is
/// deeply const after construction: any number of threads may run the
/// query methods concurrently, each with its own ElementWorkspace — the
/// QuerySnapshot-grade contract the socket server and query-bench rely on.
///
/// With a sink, construction records the "search.element" stage.
class ElementSearchIndex {
 public:
  /// The index must be non-core (a core hierarchy scores through the
  /// metric machinery of SearchIndex instead). Shares ownership of the
  /// flat index so the search object can outlive its builder.
  explicit ElementSearchIndex(std::shared_ptr<const FlatHcdIndex> flat,
                              TelemetrySink* sink = nullptr);

  ElementSearchIndex(const ElementSearchIndex&) = delete;
  ElementSearchIndex& operator=(const ElementSearchIndex&) = delete;

  const FlatHcdIndex& flat() const { return *flat_; }
  HierarchyKind kind() const { return flat_->kind(); }

  /// Distinct member vertices of node t's community. O(1).
  uint64_t CommunityVertices(TreeNodeId t) const {
    return community_vertices_[t];
  }
  /// Elements (edges / triangles) of node t's community. O(1).
  uint64_t CommunityElements(TreeNodeId t) const { return flat_->CoreSize(t); }
  /// Density of node t's community. O(1).
  double Density(TreeNodeId t) const { return density_[t]; }

  /// The globally densest community (first preorder node wins ties).
  ElementHit Densest() const { return DensestAtLeast(0); }

  /// The densest community among nodes of level >= k, first preorder node
  /// winning ties. A lookup in the level table built at construction.
  ElementHit DensestAtLeast(uint32_t k) const {
    return HitFor(argmax_.AtLeast(k));
  }

  /// Community of tree node t (its k-truss / k-nucleus): the element count
  /// is returned via the hit, and the distinct member vertices are
  /// appended to `*out` in ascending order. O(answer).
  ElementHit CommunityOf(TreeNodeId t, ElementWorkspace* ws,
                         std::vector<VertexId>* out) const;

 private:
  ElementHit HitFor(TreeNodeId t) const;

  std::shared_ptr<const FlatHcdIndex> flat_;
  std::vector<uint64_t> community_vertices_;  ///< per node, distinct
  std::vector<double> density_;               ///< per node
  LevelArgmax argmax_;                        ///< over density_
};

}  // namespace hcd

#endif  // HCD_SEARCH_ELEMENT_SEARCH_H_
