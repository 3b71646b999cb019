// Figure 10: per-component speedup of the parallel pipeline at the maximum
// swept thread count, relative to the serial counterpart of each stage:
//   CD   = PKC(p)      vs BZ(1)         (core decomposition)
//   HCD  = PHCD(p)     vs LCPS(1)       (hierarchy construction)
//   SC-A = PBKS-A(p)   vs BKS-A(1)      (type-A scores, no preprocessing)
//   SC-B = PBKS-B(p)   vs BKS-B(1)      (type-B scores)

#include <algorithm>
#include <cstdio>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "core/core_decomposition.h"
#include "core/julienne.h"
#include "hcd/flat_index.h"
#include "hcd/lcps.h"
#include "hcd/phcd.h"
#include "hcd/vertex_rank.h"
#include "search/bks.h"
#include "search/pbks.h"
#include "search/preprocess.h"

int main() {
  hcd::bench::PrintHardwareBanner(
      "Figure 10: speedup by component (max threads)");
  const int pmax = hcd::bench::ThreadSweep().back();
  std::printf("%-4s |  %8s %8s %8s %8s   (p=%d)\n", "ds", "CD", "HCD",
              "SC-A", "SC-B", pmax);
  std::printf("\n");

  for (auto& ds : hcd::bench::LoadBenchSuite()) {
    const hcd::Graph& g = ds.graph;
    hcd::CoreDecomposition cd = hcd::BzCoreDecomposition(g);
    const hcd::FlatHcdIndex flat = hcd::Freeze(hcd::PhcdBuild(g, cd));
    const hcd::GraphGlobals globals{g.NumVertices(), g.NumEdges()};

    const double bz =
        hcd::bench::TimeWithThreads(1, [&] { hcd::BzCoreDecomposition(g); });
    // The paper reports the smaller of PKC and GBBS; our GBBS stand-in is
    // the Julienne-style bucketed peeling.
    const double pkc = std::min(
        hcd::bench::TimeWithThreads(pmax, [&] { hcd::PkcCoreDecomposition(g); }),
        hcd::bench::TimeWithThreads(pmax,
                                    [&] { hcd::JulienneCoreDecomposition(g); }));

    const double lcps =
        hcd::bench::TimeWithThreads(1, [&] { hcd::LcpsBuild(g, cd); });
    const double phcd =
        hcd::bench::TimeWithThreads(pmax, [&] { hcd::PhcdBuild(g, cd); });

    const hcd::BksIndex index = hcd::BuildBksIndex(g, cd);
    const hcd::VertexRank vr = hcd::ComputeVertexRank(cd);
    const hcd::CorenessNeighborCounts pre =
        hcd::PreprocessCorenessCounts(g, cd);

    const double bks_a = hcd::bench::TimeWithThreads(1, [&] {
      ScoreNodes(flat, hcd::Metric::kConductance,
                 BksTypeAPrimary(g, cd, flat, index, vr), globals);
    });
    const double pbks_a = hcd::bench::TimeWithThreads(pmax, [&] {
      ScoreNodes(flat, hcd::Metric::kConductance,
                 PbksTypeAPrimary(g, cd, flat, pre), globals);
    });
    const double bks_b = hcd::bench::TimeWithThreads(1, [&] {
      ScoreNodes(flat, hcd::Metric::kClusteringCoefficient,
                 BksTypeBPrimary(g, cd, flat, index, vr), globals);
    });
    const double pbks_b = hcd::bench::TimeWithThreads(pmax, [&] {
      ScoreNodes(flat, hcd::Metric::kClusteringCoefficient,
                 PbksTypeBPrimary(g, cd, flat), globals);
    });

    std::printf("%-4s |  %7.2fx %7.2fx %7.2fx %7.2fx\n", ds.name.c_str(),
                bz / pkc, lcps / phcd, bks_a / pbks_a, bks_b / pbks_b);
  }
  return 0;
}
