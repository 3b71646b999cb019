// Tests for the HcdEngine pipeline layer: stage memoization (each stage
// computed at most once per engine), options plumbing (algorithm selection,
// thread-count guarding), the per-thread telemetry binding, the Load
// factory, and the JSON telemetry shape behind `hcd_cli --json`.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"
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

TEST(EngineTest, SearchIndexStagesCarryKernelCounters) {
  HcdEngine engine(RMatGraph500(9, 3000, 5));
  const SearchIndex& sidx = engine.Searcher();
  const FlatHcdIndex& flat = engine.Flat();
  auto counters_of = [&](const std::string& stage) {
    std::map<std::string, uint64_t> out;
    for (const StageRecord& r : engine.telemetry().records()) {
      if (r.stage != stage) continue;
      for (const StageCounter& c : r.counters) out[c.name] = c.value;
    }
    return out;
  };
  EXPECT_EQ(counters_of("search.primary_a")["nodes"], flat.NumNodes());
  std::map<std::string, uint64_t> b = counters_of("search.primary_b");
  EXPECT_EQ(b["forward_edges"], engine.graph().NumEdges());
  uint64_t triangles = 0;
  for (TreeNodeId root : flat.Roots()) {
    triangles += sidx.TypeBPrimary()[root].triangles;
  }
  EXPECT_GT(triangles, 0u);
  EXPECT_EQ(b["triangles"], triangles);
  EXPECT_GT(b["max_out_degree"], 0u);
  EXPECT_LE(b["max_out_degree"],
            engine.Coreness().k_max +
                std::sqrt(2.0 * engine.graph().NumEdges()));
}

TEST(EngineTest, BindingRecordsOneStagePerLibraryCall) {
  // Library entry points report to the StageTelemetry bound to the calling
  // thread: exactly one stage per call while bound, nothing once unbound.
  Graph g = ErdosRenyiGnm(300, 900, 1);
  StageTelemetry telemetry;
  CoreDecomposition cd;
  {
    StageTelemetryBinding bind(&telemetry);
    cd = PkcCoreDecomposition(g);
    EXPECT_EQ(telemetry.records().size(), 1u);
    EXPECT_EQ(telemetry.CountStage("decomposition"), 1u);
    PhcdBuild(g, cd);
    EXPECT_EQ(telemetry.CountStage("construction"), 1u);
    LcpsBuild(g, cd);
    EXPECT_EQ(telemetry.CountStage("construction"), 2u);
    BzCoreDecomposition(g);
    EXPECT_EQ(telemetry.CountStage("decomposition"), 2u);
  }
  EXPECT_EQ(StageTelemetryBinding::Current(), nullptr);
  // Unbound calls still work and add nothing.
  CoreDecomposition cd2 = PkcCoreDecomposition(g);
  EXPECT_EQ(cd2.coreness, cd.coreness);
  PhcdBuild(g, cd2);
  EXPECT_EQ(telemetry.records().size(), 4u);
}

TEST(EngineTest, BindingsNestAndRestore) {
  StageTelemetry outer;
  StageTelemetry inner;
  {
    StageTelemetryBinding bind_outer(&outer);
    {
      StageTelemetryBinding bind_inner(&inner);
      ScopedStage stage("inner");
    }
    EXPECT_EQ(StageTelemetryBinding::Current(), &outer);
    ScopedStage stage("outer");
  }
  EXPECT_EQ(StageTelemetryBinding::Current(), nullptr);
  ASSERT_EQ(inner.records().size(), 1u);
  EXPECT_EQ(inner.records()[0].stage, "inner");
  ASSERT_EQ(outer.records().size(), 1u);
  EXPECT_EQ(outer.records()[0].stage, "outer");
}

TEST(EngineTest, BindingIsInvisibleToOtherThreads) {
  // A stage finished on one thread never lands in a telemetry bound on
  // another, even while that binding is live.
  StageTelemetry bound_elsewhere;
  std::latch bound(1);
  std::latch recorded(1);
  std::thread holder([&] {
    StageTelemetryBinding bind(&bound_elsewhere);
    bound.count_down();
    recorded.wait();
  });
  bound.wait();
  EXPECT_EQ(StageTelemetryBinding::Current(), nullptr);
  { ScopedStage stage("other-thread"); }
  recorded.count_down();
  holder.join();
  EXPECT_TRUE(bound_elsewhere.records().empty());
}

TEST(EngineTest, SideBySideEnginesRecordOnlyTheirOwnStages) {
  // Engines driven from separate threads at the same time each keep
  // exactly their own build stages: the binding is per thread, so no stage
  // of one engine can land in another's telemetry.
  Graph g = ErdosRenyiGnm(20000, 120000, 17);
  const std::string path = ::testing::TempDir() + "/engine_side_by_side.bin";
  ASSERT_TRUE(SaveBinary(g, path).ok());
  constexpr int kEngines = 4;
  std::vector<std::unique_ptr<HcdEngine>> engines(kEngines);
  std::latch start(kEngines);
  std::vector<std::thread> threads;
  for (int i = 0; i < kEngines; ++i) {
    threads.emplace_back([&, i] {
      EngineOptions options;
      options.threads = 1;
      start.arrive_and_wait();
      if (!HcdEngine::Load(path, options, &engines[i]).ok()) return;
      engines[i]->Rank();
      engines[i]->Snapshot();
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<std::string> stages = {
      "load.read",           "load.validate",     "load",
      "decomposition",       "rank",              "construction",
      "construction.freeze", "search.preprocess", "search.primary_a",
      "search.primary_b",    "search.argmax_tables"};
  for (int i = 0; i < kEngines; ++i) {
    SCOPED_TRACE(i);
    ASSERT_NE(engines[i], nullptr);
    const StageTelemetry& t = engines[i]->telemetry();
    EXPECT_EQ(t.records().size(), stages.size());
    for (const std::string& stage : stages) {
      EXPECT_EQ(t.CountStage(stage), 1u) << stage;
    }
  }
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

TEST(EngineTest, LoadStageReachesTracerAndRegistry) {
  // "load" is an ordinary stage: besides the engine's telemetry it reaches
  // the installed tracer (as a span carrying its counters) and registry.
  Graph g = ErdosRenyiGnm(200, 600, 9);
  const std::string path = ::testing::TempDir() + "/engine_test_traced.bin";
  ASSERT_TRUE(SaveBinary(g, path).ok());

  Tracer tracer;
  MetricsRegistry registry;
  tracer.Install();
  registry.Install();
  std::unique_ptr<HcdEngine> engine;
  const Status s = HcdEngine::Load(path, {}, &engine);
  registry.Uninstall();
  tracer.Uninstall();
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(engine->telemetry().CountStage("load"), 1u);

  const TraceSpan* load = nullptr;
  const std::vector<TraceSpanRecord> spans = tracer.CollectSpans();
  for (const TraceSpanRecord& r : spans) {
    if (r.span.name == "load") load = &r.span;
  }
  ASSERT_NE(load, nullptr);
  std::vector<std::string> keys;
  for (const TraceArg& arg : load->args) keys.push_back(arg.key);
  EXPECT_EQ(keys, (std::vector<std::string>{"n", "m", "bytes",
                                            "edges_dropped"}));
  EXPECT_EQ(load->args[0].value, g.NumVertices());
  EXPECT_EQ(load->args[1].value, g.NumEdges());
  EXPECT_EQ(
      registry.GetCounter("hcd_stage_runs_total", "", {{"stage", "load"}})
          ->Value(),
      1u);
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

TEST(TelemetryTest, UnboundScopedStageIsNoop) {
  ASSERT_EQ(StageTelemetryBinding::Current(), nullptr);
  ScopedStage stage("anything");
  stage.AddCounter("n", 1);  // must not crash
}

}  // namespace
}  // namespace hcd
