#ifndef HCD_SEARCH_METRICS_H_
#define HCD_SEARCH_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace hcd {

/// Community scoring metrics (Section II-D), normalized so that higher is
/// better. Type-A metrics depend on n(S), m(S), b(S); type-B metrics depend
/// on triangle and triplet counts.
enum class Metric {
  kAverageDegree,
  kInternalDensity,
  kCutRatio,
  kConductance,
  kModularity,
  kClusteringCoefficient,
  /// 1 / (1 + b(S)/n(S)): inverse of the expansion (boundary edges per
  /// member), normalized into (0, 1].
  kExpansion,
  /// m(S) / (m(S) + b(S)): fraction of the community's edge mass that stays
  /// inside (a bounded form of separability m_in/m_out).
  kSeparability,
  /// Delta(S) / C(n(S), 3): fraction of vertex triples that close.
  kTriangleDensity,
};

/// All metrics, for iteration in tests and benchmarks.
inline constexpr Metric kAllMetrics[] = {
    Metric::kAverageDegree,  Metric::kInternalDensity,
    Metric::kCutRatio,       Metric::kConductance,
    Metric::kModularity,     Metric::kClusteringCoefficient,
    Metric::kExpansion,      Metric::kSeparability,
    Metric::kTriangleDensity,
};

/// True for metrics defined on high-order motifs (Section II-D's type-B);
/// false for the n/m/b-based type-A metrics.
bool IsTypeB(Metric metric);

const char* MetricName(Metric metric);

/// Parses a metric by its MetricName (e.g. "conductance"); returns false
/// (and leaves `*metric` untouched) on an unknown name. Shared by the CLI,
/// the examples and the benchmarks, so the accepted spellings are exactly
/// the names MetricName prints.
bool ParseMetric(std::string_view name, Metric* metric);

/// Whole-graph quantities some metrics need (cut ratio, modularity).
struct GraphGlobals {
  uint64_t n = 0;
  uint64_t m = 0;
};

/// Primary values of one subgraph S (Section II-D). Edge counts are stored
/// doubled (2*m(S)) so per-vertex contributions stay integral.
struct PrimaryValues {
  uint64_t n_s = 0;        ///< n(S): vertices
  uint64_t edges2 = 0;     ///< 2*m(S): twice the internal edge count
  uint64_t boundary = 0;   ///< b(S): boundary edges
  uint64_t triangles = 0;  ///< Delta(S)
  uint64_t triplets = 0;   ///< t(S): paths of length 2

  /// Field-wise sum. Unsigned wrap-around is exact here: the tally kernels
  /// (pbks.h) add a group's own boundary contribution, which can be
  /// negative, and every accumulated sum they produce is non-negative.
  PrimaryValues& operator+=(const PrimaryValues& other) {
    n_s += other.n_s;
    edges2 += other.edges2;
    boundary += other.boundary;
    triangles += other.triangles;
    triplets += other.triplets;
    return *this;
  }
};

/// Evaluates `metric` on primary values `pv` (uses `globals` where the
/// definition needs n or m of the whole graph). Degenerate denominators
/// (empty subgraph, whole graph for cut ratio, triplet-free subgraph)
/// evaluate to 0 except cut ratio on the whole graph, which is 1 (no
/// boundary edge can exist).
double EvaluateMetric(Metric metric, const PrimaryValues& pv,
                      const GraphGlobals& globals);

}  // namespace hcd

#endif  // HCD_SEARCH_METRICS_H_
