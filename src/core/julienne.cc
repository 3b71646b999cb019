#include "core/julienne.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/check.h"
#include "parallel/omp_utils.h"

namespace hcd {

CoreDecomposition JulienneCoreDecomposition(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  CoreDecomposition cd;
  cd.coreness.assign(n, 0);
  if (n == 0) return cd;

  std::unique_ptr<std::atomic<uint32_t>[]> deg(new std::atomic<uint32_t>[n]);
  uint32_t max_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    deg[v].store(graph.Degree(v), std::memory_order_relaxed);
    max_deg = std::max(max_deg, graph.Degree(v));
  }

  // Lazy buckets: entries may be stale; the pop validates against the
  // current degree and the processed flag. Total pushes <= 2m + n.
  std::vector<std::vector<VertexId>> buckets(max_deg + 1);
  for (VertexId v = 0; v < n; ++v) buckets[graph.Degree(v)].push_back(v);
  std::vector<bool> processed(n, false);

  const int pmax = MaxThreads();
  // Per-thread re-bucketing buffers: (new degree, vertex).
  std::vector<std::vector<std::pair<uint32_t, VertexId>>> buffers(pmax);
  std::vector<VertexId> frontier;
  std::vector<VertexId> stale;

  for (uint32_t k = 0; k <= max_deg; ++k) {
    while (true) {
      // Pop the valid k-frontier (entries with current degree above k are
      // impossible: degrees only decrease below their push key).
      frontier.clear();
      stale.swap(buckets[k]);
      for (VertexId v : stale) {
        if (!processed[v]) {
          HCD_DCHECK(deg[v].load(std::memory_order_relaxed) <= k);
          processed[v] = true;
          cd.coreness[v] = k;
          cd.k_max = k;
          frontier.push_back(v);
        }
      }
      stale.clear();
      if (frontier.empty()) break;

#pragma omp parallel num_threads(pmax)
      {
        auto& mine = buffers[ThreadId()];
#pragma omp for schedule(dynamic, 128)
        for (int64_t i = 0; i < static_cast<int64_t>(frontier.size()); ++i) {
          for (VertexId u : graph.Neighbors(frontier[i])) {
            if (deg[u].load(std::memory_order_relaxed) > k) {
              const uint32_t prev = deg[u].fetch_sub(1);
              if (prev > k) {
                mine.emplace_back(std::max(prev - 1, k), u);
              } else {
                deg[u].fetch_add(1);  // racing decrement below the level
              }
            }
          }
        }
      }
      for (auto& mine : buffers) {
        for (const auto& [b, u] : mine) buckets[b].push_back(u);
        mine.clear();
      }
    }
  }
  return cd;
}

}  // namespace hcd
