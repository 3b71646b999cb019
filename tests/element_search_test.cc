// Freeze/serve equivalence for the element domains: the frozen truss and
// nucleus paths (FreezeTruss/FreezeNucleus + ElementSearchIndex) must be
// bit-identical to the builder-forest oracles on every suite graph, the
// DensestAtLeast table must match a naive scan, and the whole index
// must stay bit-stable under concurrent readers (the TSan job's target).

#include "search/element_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/nucleus_hierarchy.h"
#include "nucleus/triangle_index.h"
#include "tests/test_util.h"
#include "truss/edge_index.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_hierarchy.h"

namespace hcd {
namespace {

std::vector<VertexId> Sorted(std::span<const VertexId> s) {
  std::vector<VertexId> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  return v;
}

/// Builder-side and frozen-side truss artifacts over one graph.
struct TrussFixture {
  EdgeIndexer index;
  TrussForest forest;
  std::shared_ptr<const FlatHcdIndex> flat;
};

TrussFixture MakeTruss(const Graph& g) {
  TrussFixture fx;
  fx.index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, fx.index);
  fx.forest = BuildTrussHierarchy(g, fx.index, td);
  fx.flat = std::make_shared<const FlatHcdIndex>(
      FreezeTruss(g, fx.index, fx.forest));
  return fx;
}

struct NucleusFixture {
  EdgeIndexer eidx;
  TriangleIndexer tidx;
  NucleusForest forest;
  std::shared_ptr<const FlatHcdIndex> flat;
};

NucleusFixture MakeNucleus(const Graph& g) {
  NucleusFixture fx;
  fx.eidx = BuildEdgeIndexer(g);
  fx.tidx = BuildTriangleIndexer(g, fx.eidx);
  NucleusDecomposition nd = PeelNucleusDecomposition(g, fx.eidx, fx.tidx);
  fx.forest = BuildNucleusHierarchy(g, fx.eidx, fx.tidx, nd);
  fx.flat = std::make_shared<const FlatHcdIndex>(
      FreezeNucleus(g, fx.tidx, fx.forest));
  return fx;
}

class ElementSearchSuite
    : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(ElementSearchSuite, FrozenTrussCommunityMatchesBuilderOracle) {
  const Graph& g = GetParam().graph;
  const TrussFixture fx = MakeTruss(g);
  const FlatHcdIndex& flat = *fx.flat;
  ASSERT_EQ(flat.NumNodes(), fx.forest.NumNodes());

  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    // Map the frozen node to its builder counterpart through a shared
    // edge: preorder renumbers nodes, so ids do not line up directly.
    ASSERT_FALSE(flat.Vertices(t).empty());
    const TreeNodeId ft = fx.forest.Tid(flat.Vertices(t).front());
    ASSERT_NE(ft, kInvalidNode);
    ASSERT_EQ(Sorted(flat.CoreVertices(t)), Sorted(fx.forest.CoreVertices(ft)));

    const TrussCommunity frozen = TrussCommunityOf(flat, t);
    const TrussCommunity oracle = TrussCommunityOf(g, fx.index, fx.forest, ft);
    EXPECT_EQ(frozen.vertices, oracle.vertices);
    EXPECT_EQ(frozen.num_edges, oracle.num_edges);
    EXPECT_EQ(frozen.AverageDegree(), oracle.AverageDegree());
  }
}

TEST_P(ElementSearchSuite, FrozenDensestTrussMatchesBuilderOracle) {
  const Graph& g = GetParam().graph;
  const TrussFixture fx = MakeTruss(g);
  const DensestTrussResult frozen = DensestTruss(*fx.flat);
  const DensestTrussResult oracle = DensestTruss(g, fx.index, fx.forest);

  ASSERT_EQ(frozen.node == kInvalidNode, oracle.node == kInvalidNode);
  if (frozen.node == kInvalidNode) return;
  // Equal-density ties are common (disjoint copies of one shape), and the
  // two scans visit nodes in different orders, so compare the extremal
  // score bit-for-bit rather than the winning node id.
  EXPECT_EQ(frozen.community.AverageDegree(), oracle.community.AverageDegree());
  // The frozen winner's community is self-consistent with CommunityOf.
  const TrussCommunity check = TrussCommunityOf(*fx.flat, frozen.node);
  EXPECT_EQ(frozen.community.vertices, check.vertices);
  EXPECT_EQ(frozen.community.num_edges, check.num_edges);
  EXPECT_EQ(frozen.level, fx.flat->Level(frozen.node));
}

TEST_P(ElementSearchSuite, TrussSearchIndexMatchesFrozenQueries) {
  const Graph& g = GetParam().graph;
  const TrussFixture fx = MakeTruss(g);
  const ElementSearchIndex index(fx.flat);
  const FlatHcdIndex& flat = *fx.flat;
  EXPECT_EQ(index.kind(), HierarchyKind::kTruss);

  ElementWorkspace ws;  // reused across nodes: exercises epoch stamping
  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    const TrussCommunity community = TrussCommunityOf(flat, t);
    EXPECT_EQ(index.CommunityElements(t), community.num_edges);
    EXPECT_EQ(index.CommunityVertices(t), community.vertices.size());
    EXPECT_EQ(index.Density(t), community.AverageDegree());

    std::vector<VertexId> out;
    const ElementHit hit = index.CommunityOf(t, &ws, &out);
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(hit.node, t);
    EXPECT_EQ(hit.level, flat.Level(t));
    EXPECT_EQ(hit.elements, community.num_edges);
    EXPECT_EQ(hit.vertices, community.vertices.size());
    EXPECT_EQ(hit.score, community.AverageDegree());
    EXPECT_EQ(out, community.vertices);
  }

  // Densest: same first-preorder-wins rule as the frozen DensestTruss scan,
  // so the winning node (not just the score) is identical.
  const DensestTrussResult frozen = DensestTruss(flat);
  const ElementHit densest = index.Densest();
  ASSERT_EQ(densest.found, frozen.node != kInvalidNode);
  if (densest.found) {
    EXPECT_EQ(densest.node, frozen.node);
    EXPECT_EQ(densest.level, frozen.level);
    EXPECT_EQ(densest.score, frozen.community.AverageDegree());
    EXPECT_EQ(densest.elements, frozen.community.num_edges);
    EXPECT_EQ(densest.vertices, frozen.community.vertices.size());
  }
}

/// DensestAtLeast (a level-table lookup) against the naive scan it
/// replaced, for every k in [0, k_max + 1]: node id, level, element count
/// and density bits.
void ExpectDensestAtLeastMatchesNaiveScan(
    std::shared_ptr<const FlatHcdIndex> flat_ptr) {
  const ElementSearchIndex index(flat_ptr);
  const FlatHcdIndex& flat = *flat_ptr;
  for (uint32_t k = 0; k <= testing::MaxLevel(flat) + 1; ++k) {
    // Naive reference: best density among nodes of level >= k, first node
    // winning ties.
    TreeNodeId expect = kInvalidNode;
    for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
      if (flat.Level(t) < k) continue;
      if (expect == kInvalidNode || index.Density(t) > index.Density(expect)) {
        expect = t;
      }
    }
    const ElementHit hit = index.DensestAtLeast(k);
    ASSERT_EQ(hit.found, expect != kInvalidNode) << "k=" << k;
    if (hit.found) {
      EXPECT_EQ(hit.node, expect) << "k=" << k;
      EXPECT_EQ(hit.level, flat.Level(expect)) << "k=" << k;
      EXPECT_EQ(hit.elements, flat.CoreSize(expect)) << "k=" << k;
      EXPECT_EQ(testing::Bits(hit.score), testing::Bits(index.Density(expect)))
          << "k=" << k;
    }
  }
}

TEST_P(ElementSearchSuite, DensestAtLeastMatchesNaiveScan) {
  const Graph& g = GetParam().graph;
  ExpectDensestAtLeastMatchesNaiveScan(MakeTruss(g).flat);
  ExpectDensestAtLeastMatchesNaiveScan(MakeNucleus(g).flat);
}

TEST_P(ElementSearchSuite, FrozenNucleusCommunityMatchesBuilderOracle) {
  const Graph& g = GetParam().graph;
  const NucleusFixture fx = MakeNucleus(g);
  const FlatHcdIndex& flat = *fx.flat;
  ASSERT_EQ(flat.NumNodes(), fx.forest.NumNodes());

  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    ASSERT_FALSE(flat.Vertices(t).empty());
    const TreeNodeId ft = fx.forest.Tid(flat.Vertices(t).front());
    ASSERT_NE(ft, kInvalidNode);
    ASSERT_EQ(Sorted(flat.CoreVertices(t)), Sorted(fx.forest.CoreVertices(ft)));

    const NucleusCommunity frozen = NucleusCommunityOf(flat, t);
    const NucleusCommunity oracle = NucleusCommunityOf(fx.tidx, fx.forest, ft);
    EXPECT_EQ(frozen.vertices, oracle.vertices);
    EXPECT_EQ(frozen.num_triangles, oracle.num_triangles);
    EXPECT_EQ(frozen.Density(), oracle.Density());
  }
}

TEST_P(ElementSearchSuite, NucleusSearchIndexMatchesFrozenQueries) {
  const Graph& g = GetParam().graph;
  const NucleusFixture fx = MakeNucleus(g);
  const ElementSearchIndex index(fx.flat);
  const FlatHcdIndex& flat = *fx.flat;
  EXPECT_EQ(index.kind(), HierarchyKind::kNucleus);

  ElementWorkspace ws;
  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    const NucleusCommunity community = NucleusCommunityOf(flat, t);
    EXPECT_EQ(index.CommunityElements(t), community.num_triangles);
    EXPECT_EQ(index.CommunityVertices(t), community.vertices.size());
    EXPECT_EQ(index.Density(t), community.Density());

    std::vector<VertexId> out;
    const ElementHit hit = index.CommunityOf(t, &ws, &out);
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(hit.score, community.Density());
    EXPECT_EQ(out, community.vertices);
  }

  const ElementHit densest = index.Densest();
  if (densest.found) {
    // The precomputed densest is the first preorder node attaining the
    // maximum density.
    for (TreeNodeId t = 0; t < densest.node; ++t) {
      EXPECT_LT(index.Density(t), densest.score);
    }
    EXPECT_EQ(index.Density(densest.node), densest.score);
  } else {
    EXPECT_EQ(flat.NumNodes(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, ElementSearchSuite,
    ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

TEST(ElementSearch, CommunityOfAppendsAfterExistingContent) {
  Graph g = RingOfCliques(4, 5);
  const TrussFixture fx = MakeTruss(g);
  const ElementSearchIndex index(fx.flat);
  ASSERT_GT(fx.flat->NumNodes(), 0u);

  ElementWorkspace ws;
  std::vector<VertexId> out = {777, 3};
  const ElementHit hit = index.CommunityOf(0, &ws, &out);
  ASSERT_TRUE(hit.found);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0], 777u);  // pre-existing prefix untouched
  EXPECT_EQ(out[1], 3u);
  EXPECT_TRUE(std::is_sorted(out.begin() + 2, out.end()));
  EXPECT_EQ(out.size() - 2, hit.vertices);
}

TEST(ElementSearch, EmptyHierarchyAnswersNotFound) {
  const TrussFixture fx = MakeTruss(PathGraph(4));  // edges, but no nodes
  // A path has no triangles, so every edge has trussness 2 and the forest
  // is non-empty; an edgeless graph gives the truly empty case.
  const TrussFixture empty = MakeTruss(Graph());
  const ElementSearchIndex index(empty.flat);
  EXPECT_FALSE(index.Densest().found);
  EXPECT_FALSE(index.DensestAtLeast(3).found);
  ElementWorkspace ws;
  std::vector<VertexId> out;
  EXPECT_FALSE(index.CommunityOf(kInvalidNode, &ws, &out).found);
  EXPECT_TRUE(out.empty());
  (void)fx;
}

// Sweep: randomized graphs, frozen truss serve vs builder oracle end to
// end (the randomized half of the freeze/serve equivalence requirement).
TEST(ElementSearch, RandomizedSweepMatchesOracles) {
  for (const uint64_t seed : testing::SweepSeeds()) {
    Graph g = ErdosRenyiGnm(160, 900, seed);
    const TrussFixture fx = MakeTruss(g);
    const ElementSearchIndex index(fx.flat);
    const FlatHcdIndex& flat = *fx.flat;
    for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
      const TreeNodeId ft = fx.forest.Tid(flat.Vertices(t).front());
      const TrussCommunity oracle =
          TrussCommunityOf(g, fx.index, fx.forest, ft);
      ASSERT_EQ(index.Density(t), oracle.AverageDegree())
          << "seed=" << seed << " node=" << t;
      ASSERT_EQ(index.CommunityVertices(t), oracle.vertices.size());
    }
  }
}

// Concurrent readers: many threads over one const index, each with its own
// workspace, every answer bit-identical to the serial baseline. This is
// the test the TSan job runs to certify the QuerySnapshot-grade contract.
TEST(ElementSearch, ConcurrentReadersBitIdentical) {
  Graph g = BarabasiAlbert(500, 6, 77);
  const TrussFixture fx = MakeTruss(g);
  const ElementSearchIndex index(fx.flat);
  const TreeNodeId num_nodes = fx.flat->NumNodes();
  ASSERT_GT(num_nodes, 0u);

  constexpr int kQueries = 256;
  struct Answer {
    ElementHit hit;
    std::vector<VertexId> community;
  };
  auto run_query = [&](int q, ElementWorkspace* ws) {
    Answer a;
    if (q % 2 == 0) {
      a.hit = index.DensestAtLeast(static_cast<uint32_t>(q) % 8);
      if (a.hit.found) index.CommunityOf(a.hit.node, ws, &a.community);
    } else {
      const TreeNodeId t =
          static_cast<TreeNodeId>((uint64_t{2654435761u} * q) % num_nodes);
      a.hit = index.CommunityOf(t, ws, &a.community);
    }
    return a;
  };

  std::vector<Answer> baseline(kQueries);
  {
    ElementWorkspace ws;
    for (int q = 0; q < kQueries; ++q) baseline[q] = run_query(q, &ws);
  }

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ElementWorkspace ws;
      for (int q = i; q < kQueries; ++q) {  // staggered start per thread
        const Answer a = run_query(q, &ws);
        const Answer& b = baseline[q];
        const bool same =
            a.hit.found == b.hit.found && a.hit.node == b.hit.node &&
            a.hit.level == b.hit.level && a.hit.elements == b.hit.elements &&
            a.hit.vertices == b.hit.vertices && a.hit.score == b.hit.score &&
            a.community == b.community;
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace hcd
