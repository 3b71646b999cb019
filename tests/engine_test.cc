// Tests for the HcdEngine pipeline layer: stage memoization (each stage
// computed at most once per engine), options plumbing (algorithm selection,
// thread-count guarding, telemetry on/off), the Load factory, and the JSON
// telemetry shape behind `hcd_cli --json`.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/telemetry.h"
#include "core/core_decomposition.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "hcd/lcps.h"
#include "hcd/naive_hcd.h"
#include "hcd/phcd.h"
#include "hcd/validate.h"
#include "parallel/omp_utils.h"
#include "search/pbks.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

/// Sink that counts RecordStage calls per stage label.
class CountingSink : public TelemetrySink {
 public:
  void RecordStage(const StageRecord& record) override {
    ++total_;
    for (auto& [stage, count] : per_stage_) {
      if (stage == record.stage) {
        ++count;
        return;
      }
    }
    per_stage_.push_back({record.stage, 1});
  }

  size_t total() const { return total_; }
  size_t Count(const std::string& stage) const {
    for (const auto& [s, count] : per_stage_) {
      if (s == stage) return count;
    }
    return 0;
  }

 private:
  size_t total_ = 0;
  std::vector<std::pair<std::string, size_t>> per_stage_;
};

TEST(EngineTest, StagesAreMemoized) {
  HcdEngine engine(RMatGraph500(9, 3000, 5));
  const CoreDecomposition* cd = &engine.Coreness();
  const VertexRank* rank = &engine.Rank();
  const HcdForest* forest = &engine.Forest();
  const FlatHcdIndex* flat = &engine.Flat();
  const SearchIndex* searcher = &engine.Searcher();
  // Second calls return the same objects, not recomputations.
  EXPECT_EQ(cd, &engine.Coreness());
  EXPECT_EQ(rank, &engine.Rank());
  EXPECT_EQ(forest, &engine.Forest());
  EXPECT_EQ(flat, &engine.Flat());
  EXPECT_EQ(searcher, &engine.Searcher());
}

TEST(EngineTest, DecompositionRunsExactlyOnce) {
  HcdEngine engine(RMatGraph500(9, 3000, 5));
  // Exercise every stage, several times, in an order where each stage
  // demands its prerequisites.
  engine.Search(Metric::kConductance);
  engine.Search(Metric::kClusteringCoefficient);
  engine.Search(Metric::kAverageDegree);
  engine.Coreness();
  engine.Rank();
  engine.Forest();
  engine.Flat();
  engine.Searcher();
  const StageTelemetry& t = engine.telemetry();
  EXPECT_EQ(t.CountStage("decomposition"), 1u);
  EXPECT_EQ(t.CountStage("construction"), 1u);
  EXPECT_EQ(t.CountStage("construction.freeze"), 1u);
  EXPECT_EQ(t.CountStage("rank"), 1u);
  EXPECT_EQ(t.CountStage("search.preprocess"), 1u);
  EXPECT_EQ(t.CountStage("search.primary_a"), 1u);
  EXPECT_EQ(t.CountStage("search.primary_b"), 1u);
  EXPECT_EQ(t.CountStage("search.argmax_tables"), 1u);
  EXPECT_EQ(t.CountStage("search.score"), 3u);
}

TEST(EngineTest, SinkParameterPlumbing) {
  // The optional TelemetrySink* threaded through the library entry points:
  // null means no instrumentation, a sink receives exactly one stage per
  // call.
  Graph g = ErdosRenyiGnm(300, 900, 1);
  CountingSink sink;
  CoreDecomposition cd = PkcCoreDecomposition(g, &sink);
  EXPECT_EQ(sink.total(), 1u);
  EXPECT_EQ(sink.Count("decomposition"), 1u);
  PhcdBuild(g, cd, &sink);
  EXPECT_EQ(sink.Count("construction"), 1u);
  LcpsBuild(g, cd, &sink);
  EXPECT_EQ(sink.Count("construction"), 2u);
  BzCoreDecomposition(g, &sink);
  EXPECT_EQ(sink.Count("decomposition"), 2u);
  // Null-sink calls still work and add nothing.
  CoreDecomposition cd2 = PkcCoreDecomposition(g);
  EXPECT_EQ(cd2.coreness, cd.coreness);
  EXPECT_EQ(sink.total(), 4u);
}

TEST(EngineTest, AlgoSelectionProducesEquivalentForests) {
  for (auto& c : testing::StandardGraphSuite()) {
    SCOPED_TRACE(c.name);
    HcdEngine phcd(&c.graph, {.algo = EngineAlgo::kPhcd});
    HcdEngine lcps(&c.graph, {.algo = EngineAlgo::kLcps});
    HcdEngine naive(&c.graph, {.algo = EngineAlgo::kNaive});
    EXPECT_TRUE(HcdEquals(phcd.Forest(), naive.Forest()));
    EXPECT_TRUE(HcdEquals(lcps.Forest(), naive.Forest()));
    // The frozen index preserves the hierarchy of its source forest.
    EXPECT_TRUE(HcdEquals(phcd.Forest(), lcps.Flat()));
    EXPECT_TRUE(
        ValidateHcd(c.graph, phcd.Coreness(), phcd.Forest()).ok());
    EXPECT_TRUE(
        ValidateHcd(c.graph, phcd.Coreness(), phcd.Flat()).ok());
  }
}

TEST(EngineTest, ThreadOptionDoesNotLeakGlobalState) {
  const int ambient = MaxThreads();
  HcdEngine engine(RMatGraph500(8, 2000, 3),
                   {.algo = EngineAlgo::kPhcd, .threads = ambient + 1});
  engine.Search(Metric::kAverageDegree);
  // Every stage ran under ThreadCountGuard; the ambient OpenMP setting is
  // untouched.
  EXPECT_EQ(MaxThreads(), ambient);
}

TEST(EngineTest, TelemetryOffLeavesNoRecords) {
  HcdEngine engine(RMatGraph500(8, 2000, 3), {.telemetry = false});
  EXPECT_EQ(engine.sink(), nullptr);
  engine.Search(Metric::kConductance);
  EXPECT_TRUE(engine.telemetry().records().empty());
}

TEST(EngineTest, SearchMatchesDirectPbks) {
  Graph g = RMatGraph500(9, 3000, 7);
  HcdEngine engine(&g);
  for (Metric metric : {Metric::kAverageDegree, Metric::kConductance,
                        Metric::kClusteringCoefficient}) {
    SearchResult via_engine = engine.Search(metric);
    SearchResult direct =
        PbksSearch(g, engine.Coreness(), engine.Flat(), metric);
    EXPECT_EQ(via_engine.best_node, direct.best_node);
    EXPECT_DOUBLE_EQ(via_engine.best_score, direct.best_score);
  }
}

TEST(EngineTest, LoadRecordsLoadStage) {
  Graph g = ErdosRenyiGnm(200, 600, 9);
  const std::string path = ::testing::TempDir() + "/engine_test_graph.bin";
  ASSERT_TRUE(SaveBinary(g, path).ok());

  std::unique_ptr<HcdEngine> engine;
  ASSERT_TRUE(HcdEngine::Load(path, {}, &engine).ok());
  EXPECT_EQ(engine->graph().NumVertices(), g.NumVertices());
  EXPECT_EQ(engine->graph().NumEdges(), g.NumEdges());
  EXPECT_EQ(engine->telemetry().CountStage("load"), 1u);

  std::unique_ptr<HcdEngine> missing;
  EXPECT_FALSE(
      HcdEngine::Load("/nonexistent/graph.bin", {}, &missing).ok());
}

TEST(EngineTest, ParseAndNameRoundTrip) {
  EngineAlgo algo = EngineAlgo::kPhcd;
  EXPECT_TRUE(ParseEngineAlgo("lcps", &algo));
  EXPECT_EQ(algo, EngineAlgo::kLcps);
  EXPECT_TRUE(ParseEngineAlgo("naive", &algo));
  EXPECT_EQ(algo, EngineAlgo::kNaive);
  EXPECT_TRUE(ParseEngineAlgo("phcd", &algo));
  EXPECT_EQ(algo, EngineAlgo::kPhcd);
  EXPECT_FALSE(ParseEngineAlgo("pchd", &algo));
  EXPECT_EQ(algo, EngineAlgo::kPhcd);  // untouched on failure
  for (EngineAlgo a : {EngineAlgo::kPhcd, EngineAlgo::kLcps,
                       EngineAlgo::kNaive}) {
    EngineAlgo parsed;
    ASSERT_TRUE(ParseEngineAlgo(EngineAlgoName(a), &parsed));
    EXPECT_EQ(parsed, a);
  }
}

TEST(TelemetryTest, JsonShape) {
  StageTelemetry t;
  t.RecordStage({"load", 0.5, {{"n", 3}, {"m", 7}}});
  t.RecordStage({"decomposition", 0.25, {}});
  EXPECT_EQ(t.ToJson(),
            "{\"stages\":["
            "{\"name\":\"load\",\"seconds\":0.5,\"counters\":{\"n\":3,\"m\":7}},"
            "{\"name\":\"decomposition\",\"seconds\":0.25}"
            "],\"total_seconds\":0.75,\"peak_stage\":\"load\"}");
  EXPECT_DOUBLE_EQ(t.TotalSeconds(), 0.75);
  EXPECT_EQ(t.PeakStage(), "load");
  EXPECT_EQ(t.StageSeconds("load"), 0.5);
  EXPECT_EQ(t.CountStage("load"), 1u);
  EXPECT_EQ(t.CountStage("missing"), 0u);
  t.Clear();
  EXPECT_EQ(t.ToJson(),
            "{\"stages\":[],\"total_seconds\":0,\"peak_stage\":\"\"}");
}

TEST(TelemetryTest, JsonEscaping) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(TelemetryTest, ScopedStageNullSinkIsNoop) {
  ScopedStage stage(nullptr, "anything");
  stage.AddCounter("n", 1);  // must not crash
}

}  // namespace
}  // namespace hcd
