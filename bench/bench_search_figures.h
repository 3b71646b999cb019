#ifndef HCD_BENCH_BENCH_SEARCH_FIGURES_H_
#define HCD_BENCH_BENCH_SEARCH_FIGURES_H_

#include <cstdio>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "core/core_decomposition.h"
#include "hcd/flat_index.h"
#include "hcd/lcps.h"
#include "hcd/phcd.h"
#include "hcd/vertex_rank.h"
#include "search/bks.h"
#include "search/pbks.h"
#include "search/preprocess.h"

namespace hcd::bench {

/// Shared driver for Figures 6-9: prints, per dataset and per thread count,
/// the speedup of the parallel pipeline over the serial one.
///
/// include_input == false (Figures 6, 8): score computation only — PBKS's
/// primary-value pass + scoring versus BKS's, with each side's own
/// preprocessing (coreness counts / adjacency ordering) excluded, matching
/// the paper's SC-A / SC-B measurements.
/// include_input == true (Figures 7, 9): whole pipeline — PKC + PHCD +
/// Freeze + PBKS (p threads) versus PKC(1) + LCPS + Freeze + BKS (both
/// sides pay for freezing their forest into the query index).
inline int RunSearchSpeedupFigure(const char* title, bool type_b,
                                  bool include_input) {
  PrintHardwareBanner(title);
  const Metric metric =
      type_b ? Metric::kClusteringCoefficient : Metric::kConductance;
  const auto threads = ThreadSweep();
  std::printf("%-4s | %12s |", "ds", "serial (s)");
  for (int p : threads) std::printf("  p=%-5d", p);
  std::printf("\n\n");

  for (auto& ds : LoadBenchSuite()) {
    const Graph& g = ds.graph;
    CoreDecomposition cd = PkcCoreDecomposition(g);
    const FlatHcdIndex index = Freeze(PhcdBuild(g, cd));
    const GraphGlobals globals{g.NumVertices(), g.NumEdges()};

    double serial = 0.0;
    if (include_input) {
      serial = TimeWithThreads(1, [&] {
        CoreDecomposition scd = PkcCoreDecomposition(g);
        const FlatHcdIndex si = Freeze(LcpsBuild(g, scd));
        BksSearch(g, scd, si, metric);
      });
    } else {
      const BksIndex bks = BuildBksIndex(g, cd);
      const VertexRank vr = ComputeVertexRank(cd);
      serial = TimeWithThreads(1, [&] {
        auto primary = type_b ? BksTypeBPrimary(g, cd, index, bks, vr)
                              : BksTypeAPrimary(g, cd, index, bks, vr);
        ScoreNodes(index, metric, primary, globals);
      });
    }

    std::printf("%-4s | %12.4f |", ds.name.c_str(), serial);
    for (int p : threads) {
      double t = 0.0;
      if (include_input) {
        t = TimeWithThreads(p, [&] {
          CoreDecomposition pcd = PkcCoreDecomposition(g);
          const FlatHcdIndex pi = Freeze(PhcdBuild(g, pcd));
          PbksSearch(g, pcd, pi, metric);
        });
      } else {
        const CorenessNeighborCounts pre = PreprocessCorenessCounts(g, cd);
        t = TimeWithThreads(p, [&] {
          auto primary = type_b ? PbksTypeBPrimary(g, cd, index)
                                : PbksTypeAPrimary(g, cd, index, pre);
          ScoreNodes(index, metric, primary, globals);
        });
      }
      std::printf(" %7.2fx", serial / t);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace hcd::bench

#endif  // HCD_BENCH_BENCH_SEARCH_FIGURES_H_
