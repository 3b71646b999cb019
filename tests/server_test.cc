// Tests of the socket query server stack (src/server): wire protocol
// round-trips, the shared ExecuteQuery path (its table-served argmax
// answers checked against the level-filtered scan), and the server end to
// end over real loopback sockets — including the concurrent soak the TSan
// CI job runs, where serve workers answer from each generation's tables
// while a writer publishes new generations.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "engine/engine.h"
#include "engine/live.h"
#include "graph/generators.h"
#include "hcd/query.h"
#include "search/element_search.h"
#include "search/metrics.h"
#include "server/client.h"
#include "truss/edge_index.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_hierarchy.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/slow_log.h"
#include "tests/test_util.h"

namespace hcd::server {
namespace {

using hcd::testing::Bits;
using hcd::testing::JsonValue;
using hcd::testing::ParseJson;

std::vector<EdgeUpdate> ToggleBatch(const DynamicCoreIndex& index, Rng& rng,
                                    size_t size) {
  const VertexId n = index.NumVertices();
  std::vector<EdgeUpdate> batch;
  while (batch.size() < size) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(n));
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    batch.push_back(
        {u, v, index.HasEdge(u, v) ? EdgeOp::kRemove : EdgeOp::kInsert});
  }
  return batch;
}

// --- protocol ---------------------------------------------------------------

TEST(Protocol, QueryRequestRoundTrips) {
  QueryRequest request;
  request.metric = Metric::kConductance;
  request.k = 3;
  request.max_return_vertices = 7;
  request.vertices = {5, 1, 9};
  const std::string payload = EncodeQueryRequest(request);

  MessageType type;
  ASSERT_TRUE(DecodeRequestType(payload, &type));
  EXPECT_EQ(type, MessageType::kQuery);

  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(payload, &decoded));
  EXPECT_EQ(decoded.metric, request.metric);
  EXPECT_EQ(decoded.k, request.k);
  EXPECT_EQ(decoded.max_return_vertices, request.max_return_vertices);
  EXPECT_EQ(decoded.vertices, request.vertices);
}

TEST(Protocol, QueryResponseRoundTripsScoreBitExactly) {
  QueryResponse response;
  response.status = ResponseStatus::kOk;
  response.epoch = 42;
  response.found = true;
  response.level = 6;
  response.core_size = 123456789012345ull;
  response.score = 0.1 + 0.2;  // not representable tidily: bits must survive
  response.vertices = {3, 1, 4, 1};
  const std::string payload = EncodeQueryResponse(response);

  QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(payload, &decoded));
  EXPECT_EQ(decoded.status, ResponseStatus::kOk);
  EXPECT_EQ(decoded.epoch, response.epoch);
  EXPECT_TRUE(decoded.found);
  EXPECT_EQ(decoded.level, response.level);
  EXPECT_EQ(decoded.core_size, response.core_size);
  EXPECT_EQ(decoded.score, response.score);  // exact, not near
  EXPECT_EQ(decoded.vertices, response.vertices);
}

TEST(Protocol, ResponseHeaderSizeBoundsTheVertexEcho) {
  QueryResponse response;
  EXPECT_EQ(EncodeQueryResponse(response).size(), kQueryResponseHeaderBytes);
  // A full echo is the largest response and still fits one frame.
  response.vertices.assign(kMaxResponseVertices, 7);
  EXPECT_LE(EncodeQueryResponse(response).size(), kMaxPayloadBytes);
  response.vertices.push_back(7);
  EXPECT_GT(EncodeQueryResponse(response).size(), kMaxPayloadBytes);
}

TEST(Protocol, StatusOnlyResponsesCarryNoBody) {
  for (const ResponseStatus status :
       {ResponseStatus::kOverloaded, ResponseStatus::kBadRequest}) {
    const std::string payload = EncodeStatusOnlyResponse(status);
    EXPECT_EQ(payload.size(), 1u);
    QueryResponse decoded;
    ASSERT_TRUE(DecodeQueryResponse(payload, &decoded));
    EXPECT_EQ(decoded.status, status);
  }
}

TEST(Protocol, MetricsResponseRoundTrips) {
  const std::string text = "# HELP x y\nx 1\n";
  const std::string payload = EncodeMetricsResponse(text);
  ResponseStatus status = ResponseStatus::kBadRequest;
  std::string decoded;
  ASSERT_TRUE(DecodeMetricsResponse(payload, &status, &decoded));
  EXPECT_EQ(status, ResponseStatus::kOk);
  EXPECT_EQ(decoded, text);
}

TEST(Protocol, DecodersRejectMalformedPayloads) {
  QueryRequest valid;
  valid.vertices = {1, 2};
  const std::string good = EncodeQueryRequest(valid);

  QueryRequest out;
  MessageType type;
  EXPECT_FALSE(DecodeRequestType("", &type));
  EXPECT_FALSE(DecodeRequestType("\x07", &type));  // unknown message type
  EXPECT_FALSE(DecodeQueryRequest("", &out));
  // Truncated payload: count says 2 vertices, bytes hold 1.
  EXPECT_FALSE(DecodeQueryRequest(good.substr(0, good.size() - 4), &out));
  // Trailing garbage after the advertised vertices.
  EXPECT_FALSE(DecodeQueryRequest(good + "????", &out));
  // Out-of-range metric index.
  std::string bad_metric = good;
  bad_metric[1] = '\x7f';
  EXPECT_FALSE(DecodeQueryRequest(bad_metric, &out));

  QueryResponse response_out;
  EXPECT_FALSE(DecodeQueryResponse("", &response_out));
  EXPECT_FALSE(DecodeQueryResponse("\x09", &response_out));  // bad status
}

TEST(Protocol, TraceContextRoundTripsAsAVersionTwoTail) {
  QueryRequest request;
  request.metric = Metric::kCutRatio;
  request.k = 2;
  request.vertices = {4, 8};
  const std::string untraced = EncodeQueryRequest(request);

  request.trace_id = 0xdeadbeefcafef00dull;
  request.sampled = true;
  const std::string traced = EncodeQueryRequest(request);
  ASSERT_EQ(traced.size(), untraced.size() + 9);  // u64 id + u8 sampled

  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(traced, &decoded));
  EXPECT_EQ(decoded.trace_id, request.trace_id);
  EXPECT_TRUE(decoded.sampled);
  EXPECT_EQ(decoded.vertices, request.vertices);

  // A version-1 frame (no tail) still decodes, with no trace context —
  // the compatibility contract for old clients against new servers.
  ASSERT_TRUE(DecodeQueryRequest(untraced, &decoded));
  EXPECT_EQ(decoded.trace_id, 0u);
  EXPECT_FALSE(decoded.sampled);
  EXPECT_EQ(decoded.vertices, request.vertices);
}

TEST(Protocol, MalformedTraceTailsAreRejected) {
  QueryRequest request;
  request.vertices = {1};
  request.trace_id = 7;
  request.sampled = false;
  const std::string traced = EncodeQueryRequest(request);

  QueryRequest out;
  // A truncated tail is neither a valid v1 nor a valid v2 frame.
  for (size_t cut = 1; cut < 9; ++cut) {
    EXPECT_FALSE(DecodeQueryRequest(
        std::string_view(traced).substr(0, traced.size() - cut), &out))
        << "tail short by " << cut;
  }
  // The sampled flag is strictly 0 or 1.
  std::string bad_flag = traced;
  bad_flag.back() = '\x02';
  EXPECT_FALSE(DecodeQueryRequest(bad_flag, &out));
}

TEST(Protocol, StatsRequestRoundTripsItsType) {
  const std::string payload = EncodeStatsRequest();
  MessageType type;
  ASSERT_TRUE(DecodeRequestType(payload, &type));
  EXPECT_EQ(type, MessageType::kStats);
}

// --- slow log ---------------------------------------------------------------

TEST(SlowLog, FormatsOneParseableRecordWithExactPhaseSum) {
  SlowLogRecord record;
  record.ts_unix_ms = 1700000000123ull;
  record.reason = "sampled";
  record.regime = "vertex-set";
  record.hierarchy = HierarchyKind::kTruss;
  record.metric = Metric::kConductance;
  record.k = 4;
  record.found = true;
  record.overloaded = true;
  record.epoch = 9;
  record.queue_depth = 3;
  record.timings.trace_id = 0xabcdef;
  record.timings.sampled = true;
  record.timings.queue_ns = 1000;
  record.timings.decode_ns = 200;
  record.timings.search_ns = 4300;
  record.timings.encode_ns = 500;

  const std::string line = FormatSlowLogRecord(record);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(line, &doc)) << line;
  EXPECT_EQ(doc.Find("ts_unix_ms")->number, 1700000000123.0);
  EXPECT_EQ(doc.Find("reason")->str, "sampled");
  EXPECT_EQ(doc.Find("trace_id")->str, "0xabcdef");
  EXPECT_EQ(doc.Find("regime")->str, "vertex-set");
  EXPECT_EQ(doc.Find("hierarchy")->str, "truss");
  EXPECT_EQ(doc.Find("metric")->str, "conductance");
  EXPECT_EQ(doc.Find("k")->number, 4.0);
  EXPECT_EQ(doc.Find("epoch")->number, 9.0);
  EXPECT_EQ(doc.Find("queue_depth")->number, 3.0);
  const JsonValue* phases = doc.Find("phase_ns");
  ASSERT_NE(phases, nullptr);
  const double sum = phases->Find("queue")->number +
                     phases->Find("decode")->number +
                     phases->Find("search")->number +
                     phases->Find("encode")->number;
  EXPECT_EQ(doc.Find("total_ns")->number, sum);
  EXPECT_EQ(doc.Find("total_ns")->number, 6000.0);
  EXPECT_EQ(phases->Find("cache"), nullptr);
}

// --- ExecuteQuery -----------------------------------------------------------

class ExecuteQueryTest : public ::testing::Test {
 protected:
  ExecuteQueryTest() : live_(ErdosRenyiGnm(300, 1200, 17)) {}
  LiveEngine live_;
};

TEST_F(ExecuteQueryTest, GlobalBestMatchesSnapshotSearchBitExactly) {
  const QuerySnapshot snapshot = live_.Snapshot();
  SearchWorkspace expect_ws;
  for (const Metric metric : kAllMetrics) {
    QueryRequest request;
    request.metric = metric;
    const QueryOutcome outcome = ExecuteQuery(snapshot, request);
    const SearchHit expect =
        SearchInto(snapshot.flat(), snapshot.search_index(), metric,
                   &expect_ws);
    ASSERT_TRUE(outcome.found);
    EXPECT_EQ(outcome.node, expect.best_node);
    EXPECT_EQ(outcome.score, expect.best_score);  // bit-identical
    EXPECT_EQ(outcome.level, snapshot.flat().Level(expect.best_node));
    EXPECT_EQ(outcome.core_size, snapshot.flat().CoreSize(expect.best_node));
  }
}

TEST_F(ExecuteQueryTest, LevelConstraintRestrictsTheArgmax) {
  const QuerySnapshot snapshot = live_.Snapshot();
  SearchWorkspace ws;
  QueryRequest request;
  request.metric = Metric::kInternalDensity;
  request.k = 2;
  const QueryOutcome outcome = ExecuteQuery(snapshot, request);
  ASSERT_TRUE(outcome.found);
  EXPECT_GE(outcome.level, 2u);
  SearchInto(snapshot.flat(), snapshot.search_index(), request.metric, &ws);
  EXPECT_EQ(outcome.node,
            testing::ScanBestAtLeast(snapshot.flat(), ws.scores, 2));

  // An impossible constraint reports not-found, never a wrong node.
  request.k = 1u << 20;
  EXPECT_FALSE(ExecuteQuery(snapshot, request).found);
}

TEST_F(ExecuteQueryTest, VertexQueriesMatchTheAncestorWalk) {
  const QuerySnapshot snapshot = live_.Snapshot();
  const FlatHcdIndex& flat = snapshot.flat();
  for (VertexId v = 0; v < 20; ++v) {
    const uint32_t k = hcd::CorenessOf(flat, v);
    if (k == 0) continue;
    QueryRequest request;
    request.metric = Metric::kAverageDegree;
    request.k = k;
    request.vertices = {v};
    const QueryOutcome outcome = ExecuteQuery(snapshot, request);
    ASSERT_TRUE(outcome.found);
    EXPECT_EQ(outcome.node, hcd::NodeOfKCoreContaining(flat, v, k));
    EXPECT_GE(outcome.level, k);
    // Too deep for this vertex: not found.
    request.k = k + 1;
    EXPECT_FALSE(ExecuteQuery(snapshot, request).found);
  }
}

// Differential test of the argmax tables: every (metric, k) answer of
// ExecuteQuery, for every k in [0, k_max + 1] (levels with no node
// included), equals the level-filtered scan over SearchInto's scores on
// node id, level, core size and score bits.
void ExpectArgmaxMatchesScan(const Graph& graph) {
  HcdEngine engine(&graph);
  const QuerySnapshot snapshot = engine.Snapshot();
  const FlatHcdIndex& flat = snapshot.flat();
  SearchWorkspace ws;
  for (const Metric metric : kAllMetrics) {
    SearchInto(flat, snapshot.search_index(), metric, &ws);
    for (uint32_t k = 0; k <= testing::MaxLevel(flat) + 1; ++k) {
      QueryRequest request;
      request.metric = metric;
      request.k = k;
      const QueryOutcome got = ExecuteQuery(snapshot, request);
      const TreeNodeId want = testing::ScanBestAtLeast(flat, ws.scores, k);
      ASSERT_EQ(got.found, want != kInvalidNode)
          << MetricName(metric) << " k=" << k;
      if (!got.found) continue;
      ASSERT_EQ(got.node, want) << MetricName(metric) << " k=" << k;
      ASSERT_EQ(got.level, flat.Level(want));
      ASSERT_EQ(got.core_size, flat.CoreSize(want));
      ASSERT_EQ(Bits(got.score), Bits(ws.scores[want]))
          << MetricName(metric) << " k=" << k;
    }
  }
}

class ArgmaxTableSuite
    : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(ArgmaxTableSuite, EveryLevelMatchesTheScan) {
  ExpectArgmaxMatchesScan(GetParam().graph);
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, ArgmaxTableSuite,
    ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

// A skewed RMAT graph: many level groups with gaps between their levels,
// where a lookup for a k without nodes must fall through to the next
// deeper group.
TEST(ArgmaxTable, RmatLevelGapsMatchTheScan) {
  const Graph graph = RMatGraph500(12, 60000, 91);
  HcdEngine engine(&graph);
  const FlatHcdIndex& flat = engine.Snapshot().flat();
  ASSERT_LT(flat.NumLevelGroups(), testing::MaxLevel(flat))
      << "the graph should leave some levels without a node";
  ExpectArgmaxMatchesScan(graph);
}

// --- server end to end ------------------------------------------------------

TEST(QueryServerTest, AnswersRepeatedQueriesIdentically) {
  LiveEngine live(ErdosRenyiGnm(200, 800, 23));
  ServerOptions options;
  options.workers = 2;
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  QueryRequest request;
  request.metric = Metric::kConductance;
  request.max_return_vertices = 5;
  QueryResponse first, second;
  ASSERT_TRUE(client.Query(request, &first).ok());
  ASSERT_TRUE(client.Query(request, &second).ok());
  EXPECT_EQ(first.status, ResponseStatus::kOk);
  EXPECT_TRUE(first.found);
  EXPECT_EQ(first.epoch, live.Epoch());
  EXPECT_EQ(second.score, first.score);
  EXPECT_EQ(second.level, first.level);
  EXPECT_EQ(second.core_size, first.core_size);
  EXPECT_LE(first.vertices.size(), 5u);
  EXPECT_EQ(second.vertices, first.vertices);

  // The answer matches the library computed in-process, bit for bit.
  const QueryOutcome expect = ExecuteQuery(live.Snapshot(), request);
  EXPECT_EQ(first.score, expect.score);
  EXPECT_EQ(first.level, expect.level);
  EXPECT_EQ(first.core_size, expect.core_size);

  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.connections, 1u);
}

TEST(QueryServerTest, ServesElementHierarchyAlongsideCore) {
  Graph graph = ErdosRenyiGnm(180, 900, 29);

  // Frozen truss index served next to the live core snapshots.
  const EdgeIndexer eidx = BuildEdgeIndexer(graph);
  const TrussDecomposition td = PeelTrussDecomposition(graph, eidx);
  auto flat = std::make_shared<const FlatHcdIndex>(
      FreezeTruss(graph, eidx, BuildTrussHierarchy(graph, eidx, td)));
  const ElementSearchIndex element_index(flat);
  ASSERT_GT(flat->NumNodes(), 0u);

  LiveEngine live(std::move(graph));
  ServerOptions options;
  options.workers = 2;
  options.element_index = &element_index;
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Regime 1: empty ids, k == 0 — the globally densest truss community,
  // bit-identical to the in-process index.
  QueryRequest request;
  request.hierarchy = HierarchyKind::kTruss;
  request.max_return_vertices = 8;
  QueryResponse response;
  ASSERT_TRUE(client.Query(request, &response).ok());
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_TRUE(response.found);
  const ElementHit densest = element_index.Densest();
  EXPECT_EQ(response.score, densest.score);
  EXPECT_EQ(response.level, densest.level);
  EXPECT_EQ(response.core_size, densest.elements);
  EXPECT_EQ(response.epoch, live.Epoch());
  // The echoed vertices are the community's member graph vertices,
  // ascending and truncated to max_return_vertices.
  ElementWorkspace ws;
  std::vector<VertexId> expect_vertices;
  element_index.CommunityOf(densest.node, &ws, &expect_vertices);
  if (expect_vertices.size() > 8) expect_vertices.resize(8);
  EXPECT_EQ(response.vertices, expect_vertices);

  // Repeats answer identically under the same epoch.
  QueryResponse repeat;
  ASSERT_TRUE(client.Query(request, &repeat).ok());
  EXPECT_EQ(repeat.score, response.score);

  // Regime 2: level-constrained densest.
  request.k = 3;
  ASSERT_TRUE(client.Query(request, &response).ok());
  const ElementHit at_least = element_index.DensestAtLeast(3);
  EXPECT_EQ(response.found, at_least.found);
  if (response.found) {
    EXPECT_EQ(response.score, at_least.score);
    EXPECT_GE(response.level, 3u);
  }

  // Regime 3: ids carry *element* (edge) ids; the answer is the community
  // containing them all.
  request.k = 0;
  request.vertices = {0};
  ASSERT_TRUE(client.Query(request, &response).ok());
  const TreeNodeId node = hcd::NodeOfKCoreContaining(*flat, 0, 0);
  ASSERT_NE(node, kInvalidNode);
  ASSERT_TRUE(response.found);
  EXPECT_EQ(response.level, flat->Level(node));
  EXPECT_EQ(response.core_size, flat->CoreSize(node));
  EXPECT_EQ(response.score, element_index.Density(node));

  // A hostile out-of-range element id answers found = false, not a crash.
  request.vertices = {flat->NumElements() + 1000};
  ASSERT_TRUE(client.Query(request, &response).ok());
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_FALSE(response.found);

  // An unserved kind (nucleus here) answers found = false and keeps the
  // connection open for the next request.
  request.hierarchy = HierarchyKind::kNucleus;
  request.vertices.clear();
  ASSERT_TRUE(client.Query(request, &response).ok());
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_FALSE(response.found);
  request.hierarchy = HierarchyKind::kCore;
  ASSERT_TRUE(client.Query(request, &response).ok());
  EXPECT_TRUE(response.found);  // core regime still answers on this socket

  server.Stop();
}

TEST(QueryServerTest, PipelinedRequestsAnswerInOrder) {
  LiveEngine live(ErdosRenyiGnm(150, 600, 29));
  QueryServer server(&live.manager(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr int kBatch = 16;
  std::vector<QueryRequest> requests(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    requests[i].metric = kAllMetrics[i % std::size(kAllMetrics)];
    ASSERT_TRUE(client.SendQuery(requests[i]).ok());
  }
  const QuerySnapshot snapshot = live.Snapshot();
  for (int i = 0; i < kBatch; ++i) {
    QueryResponse response;
    ASSERT_TRUE(client.ReadQueryResponse(&response).ok());
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    const QueryOutcome expect = ExecuteQuery(snapshot, requests[i]);
    EXPECT_EQ(response.score, expect.score) << "response " << i;
  }
}

// A core too big to echo whole: a 300k-vertex cycle is one 2-core whose
// member list would overflow the 1 MiB frame. The echo is clamped to
// kMaxResponseVertices, core_size still reports the full core, and the
// connection survives for the next request.
TEST(QueryServerTest, HugeCoreEchoIsClampedToOneFrame) {
  constexpr VertexId kRing = 300000;
  LiveEngine live(CycleGraph(kRing));
  QueryServer server(&live.manager(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  QueryRequest request;
  request.max_return_vertices = UINT32_MAX;
  QueryResponse response;
  ASSERT_TRUE(client.Query(request, &response).ok());
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_TRUE(response.found);
  EXPECT_EQ(response.core_size, kRing);
  EXPECT_EQ(response.vertices.size(), kMaxResponseVertices);
  const QuerySnapshot snapshot = live.Snapshot();
  const std::span<const VertexId> members =
      snapshot.CoreVertices(ExecuteQuery(snapshot, request).node);
  EXPECT_TRUE(std::equal(response.vertices.begin(), response.vertices.end(),
                         members.begin()));

  request.max_return_vertices = 3;
  ASSERT_TRUE(client.Query(request, &response).ok());
  EXPECT_EQ(response.vertices.size(), 3u);
  server.Stop();
}

// Sends one raw frame (the QueryClient only writes well-formed ones) and
// returns the server's one-byte response status; -1 on read failure.
int RawFrameStatus(uint16_t port, std::string_view payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  std::string frame;
  AppendFrame(&frame, payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t w = ::send(fd, frame.data() + sent, frame.size() - sent, 0);
    if (w <= 0) break;
    sent += static_cast<size_t>(w);
  }
  // Response: 4-byte length prefix, then at least the status byte.
  char head[5];
  size_t got = 0;
  while (got < sizeof(head)) {
    const ssize_t r = ::recv(fd, head + got, sizeof(head) - got, 0);
    if (r <= 0) {
      ::close(fd);
      return -1;
    }
    got += static_cast<size_t>(r);
  }
  // After a bad request the server closes; drain to EOF to observe it.
  char sink[64];
  while (::recv(fd, sink, sizeof(sink), 0) > 0) {
  }
  ::close(fd);
  return static_cast<uint8_t>(head[4]);
}

TEST(QueryServerTest, MalformedFramesGetBadRequestAndClose) {
  LiveEngine live(ErdosRenyiGnm(100, 300, 31));
  QueryServer server(&live.manager(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  QueryRequest probe;
  const std::string valid = EncodeQueryRequest(probe);
  std::string unknown_type = valid;
  unknown_type[0] = '\x63';  // not a MessageType
  std::string bad_metric = valid;
  bad_metric[1] = '\x7e';  // metric index out of range
  EXPECT_EQ(RawFrameStatus(server.port(), unknown_type),
            static_cast<int>(ResponseStatus::kBadRequest));
  EXPECT_EQ(RawFrameStatus(server.port(), bad_metric),
            static_cast<int>(ResponseStatus::kBadRequest));
  // Truncated query payload.
  EXPECT_EQ(RawFrameStatus(server.port(),
                           std::string_view(valid).substr(0, valid.size() - 1)),
            static_cast<int>(ResponseStatus::kBadRequest));

  // A well-formed client still works on a fresh connection afterwards.
  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  QueryResponse response;
  ASSERT_TRUE(client.Query(probe, &response).ok());
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  server.Stop();
  EXPECT_EQ(server.stats().bad_requests, 3u);
}

TEST(QueryServerTest, OverloadedConnectionsAreShedWithAnExplicitFrame) {
  LiveEngine live(ErdosRenyiGnm(100, 300, 37));
  ServerOptions options;
  options.workers = 1;
  options.max_pending = 0;  // admission = idle workers only
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  // First connection: admitted (the one worker is idle) and proven owned
  // by completing a query.
  QueryClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
  QueryRequest request;
  QueryResponse response;
  Status s = first.Query(request, &response);
  // The very first connect can race worker startup: retry until admitted.
  while (s.ok() && response.status == ResponseStatus::kOverloaded) {
    ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
    s = first.Query(request, &response);
  }
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(response.status, ResponseStatus::kOk);

  // Second connection: the worker owns the first, nothing is idle, the
  // pending bound is 0 -> shed with the explicit overload frame.
  QueryClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()).ok());
  QueryResponse shed;
  ASSERT_TRUE(second.ReadQueryResponse(&shed).ok());
  EXPECT_EQ(shed.status, ResponseStatus::kOverloaded);

  server.Stop();
  EXPECT_GE(server.stats().shed, 1u);
}

TEST(QueryServerTest, ServesMetricsAndResolvesInstrumentsOnce) {
  MetricsRegistry registry;
  registry.Install();
  {
    LiveEngine live(ErdosRenyiGnm(150, 500, 41));
    QueryServer server(&live.manager(), ServerOptions{});
    ASSERT_TRUE(server.Start().ok());

    // Every instrument was resolved at Start: the serve path must perform
    // zero registry lookups per request.
    const uint64_t lookups_after_start = registry.lookup_count();
    QueryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    QueryRequest request;
    QueryResponse response;
    constexpr int kRequests = 50;
    for (int i = 0; i < kRequests; ++i) {
      request.metric = kAllMetrics[i % std::size(kAllMetrics)];
      request.k = static_cast<uint32_t>(i % 3);
      ASSERT_TRUE(client.Query(request, &response).ok());
      ASSERT_EQ(response.status, ResponseStatus::kOk);
    }
    EXPECT_EQ(registry.lookup_count(), lookups_after_start)
        << "the per-request path performed registry lookups";

    // The metrics endpoint serves the exposition with the server counters.
    std::string text;
    ASSERT_TRUE(client.FetchMetrics(&text).ok());
    EXPECT_NE(text.find("hcd_server_requests_total 50"), std::string::npos)
        << text;
    EXPECT_NE(text.find("hcd_query_latency_seconds_bucket"),
              std::string::npos);
    server.Stop();
    EXPECT_EQ(server.stats().metrics_requests, 1u);
  }
  registry.Uninstall();
}

// The TSan soak: serve workers answer a mixed workload from each
// generation's argmax tables over loopback sockets while the writer keeps
// publishing generations. Every response must match the level-filtered
// scan over a snapshot of the SAME epoch the response claims — i.e. no
// answer of one generation is ever served under another's epoch.
TEST(QueryServerTest, SoakTableServingStaysConsistentAcrossHandover) {
  LiveEngine live(ErdosRenyiGnm(200, 700, 47));
  ServerOptions options;
  options.workers = 2;
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  // One client per worker: a worker owns its connection to completion, so
  // more clients than workers would leave the extras parked in pending.
  constexpr int kClients = 2;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      // Each client checks answers against its own reader, which may lag
      // the writer exactly like the serve workers do.
      SnapshotReader reader(live.manager());
      SearchWorkspace ws;
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        QueryRequest request;
        request.metric =
            kAllMetrics[(c + i) % std::size(kAllMetrics)];
        request.k = static_cast<uint32_t>(i % 3);
        ++i;
        QueryResponse response;
        ASSERT_TRUE(client.Query(request, &response).ok());
        ASSERT_EQ(response.status, ResponseStatus::kOk);
        // Pin a snapshot of the epoch the server claims to have answered
        // on; the reader may need one refresh to catch up, and may also
        // be one generation behind (in which case skip the cross-check —
        // the epoch equality below is the invariant under test).
        QuerySnapshot snap = reader.Snapshot();
        if (snap.epoch() < response.epoch) snap = reader.Snapshot();
        if (snap.epoch() == response.epoch) {
          SearchInto(snap.flat(), snap.search_index(), request.metric, &ws);
          const TreeNodeId expect =
              testing::ScanBestAtLeast(snap.flat(), ws.scores, request.k);
          ASSERT_EQ(response.found, expect != kInvalidNode);
          if (response.found) {
            // Bit-identical to the scan on that epoch.
            ASSERT_EQ(Bits(response.score), Bits(ws.scores[expect]))
                << "stale or wrong table answer at epoch " << response.epoch;
            ASSERT_EQ(response.level, snap.flat().Level(expect));
            ASSERT_EQ(response.core_size, snap.flat().CoreSize(expect));
          }
        }
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(48);
  uint64_t published = 0;
  while (published < 5) {  // >= 5 handovers under active serving
    // Let each generation actually serve before the next handover;
    // otherwise all five publishes can land before the client threads
    // issue their first query.
    const uint64_t target = served.load() + 60;
    for (int spin = 0; spin < 5000 && served.load() < target; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    BatchApplyReport report;
    ASSERT_TRUE(
        live.ApplyBatch(ToggleBatch(live.dynamic(), rng, 20), &report).ok());
    if (report.published) ++published;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  server.Stop();

  EXPECT_GT(served.load(), 0u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, served.load());
  EXPECT_EQ(stats.bad_requests, 0u);
}

// --- request-scoped observability -------------------------------------------

TEST(QueryServerTest, StatsJsonMatchesTheAlwaysOnHistograms) {
  MetricsRegistry registry;
  registry.Install();
  {
    LiveEngine live(ErdosRenyiGnm(200, 800, 51));
    ServerOptions options;
    options.workers = 1;
    options.stats_tick_millis = 25;  // fast ticks so windows fill quickly
    QueryServer server(&live.manager(), options);
    ASSERT_TRUE(server.Start().ok());

    QueryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    constexpr int kRequests = 40;
    QueryRequest request;
    QueryResponse response;
    for (int i = 0; i < kRequests; ++i) {
      request.metric = kAllMetrics[i % std::size(kAllMetrics)];
      request.k = static_cast<uint32_t>(i % 2);
      ASSERT_TRUE(client.Query(request, &response).ok());
      ASSERT_EQ(response.status, ResponseStatus::kOk);
    }
    // Let the ticker capture a sample after the last request so the
    // clamped widest window covers all of them.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::string json;
    ASSERT_TRUE(client.FetchStats(&json).ok());
    JsonValue doc;
    ASSERT_TRUE(ParseJson(json, &doc)) << json;

    const JsonValue* totals = doc.Find("server")->Find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->Find("requests")->number, kRequests);
    EXPECT_EQ(totals->Find("bad_requests")->number, 0.0);
    EXPECT_EQ(totals->Find("connections")->number, 1.0);

    // The lifetime quantiles are rendered from the same always-on
    // histogram the registry instrument mirrors, so the JSON p99 equals
    // the registry histogram's Quantile (modulo %.6g formatting).
    const JsonValue* total = doc.Find("total");
    ASSERT_NE(total, nullptr);
    const JsonValue* latency = total->Find("latency_us");
    EXPECT_EQ(latency->Find("count")->number, kRequests);
    const double registry_p99 =
        registry.GetHistogram("hcd_query_latency_seconds")->Quantile(0.99) *
        1e6;
    EXPECT_NEAR(latency->Find("p99_us")->number, registry_p99,
                registry_p99 * 1e-4 + 1e-9);

    // Every phase histogram saw every request, and the per-phase p99s are
    // rendered from the registry-mirrored data too.
    const JsonValue* phases = total->Find("phases_us");
    for (const char* phase : {"queue", "decode", "search", "encode"}) {
      ASSERT_NE(phases->Find(phase), nullptr) << phase;
      EXPECT_EQ(phases->Find(phase)->Find("count")->number, kRequests)
          << phase;
    }
    const double search_p99 =
        registry
            .GetHistogram("hcd_server_phase_seconds", "",
                          {{"phase", "search"}})
            ->Quantile(0.99) *
        1e6;
    EXPECT_NEAR(phases->Find("search")->Find("p99_us")->number, search_p99,
                search_p99 * 1e-4 + 1e-9);

    // The widest window clamps to the full uptime, so it has seen all the
    // requests and reproduces the lifetime quantiles (same observations).
    const JsonValue* windows = doc.Find("windows");
    ASSERT_NE(windows, nullptr);
    ASSERT_FALSE(windows->array.empty());
    const JsonValue* widest = nullptr;
    for (const JsonValue& window : windows->array) {
      if (window.Find("ticks")->number == 60.0) widest = &window;
    }
    ASSERT_NE(widest, nullptr);
    const JsonValue* window_latency = widest->Find("latency_us");
    EXPECT_EQ(window_latency->Find("count")->number, kRequests);
    EXPECT_NEAR(window_latency->Find("p99_us")->number, registry_p99,
                registry_p99 * 1e-4 + 1e-9);
    EXPECT_GT(widest->Find("qps")->number, 0.0);
    EXPECT_EQ(widest->Find("error_rate")->number, 0.0);

    server.Stop();
    EXPECT_GE(server.stats().stats_requests, 1u);
  }
  registry.Uninstall();
}

TEST(QueryServerTest, SlowLogRecordsEveryRequestWithExactPhaseSums) {
  const std::string path = ::testing::TempDir() + "/hcd_server_slow.jsonl";
  std::remove(path.c_str());
  LiveEngine live(ErdosRenyiGnm(200, 800, 53));
  ServerOptions options;
  options.workers = 1;
  options.slow_query_ms = 0.0;  // every request is "slow": log them all
  options.slow_log_path = path;
  options.slow_log_sample_every = 0;
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr int kRequests = 24;
  QueryRequest request;
  QueryResponse response;
  for (int i = 0; i < kRequests; ++i) {
    request.metric = kAllMetrics[i % std::size(kAllMetrics)];
    request.k = static_cast<uint32_t>(i % 3);
    request.vertices.clear();
    if (i % 4 == 3) request.vertices = {static_cast<VertexId>(i)};
    ASSERT_TRUE(client.Query(request, &response).ok());
    ASSERT_EQ(response.status, ResponseStatus::kOk);
  }
  server.Stop();  // drains and closes the slow log

  ASSERT_NE(server.slow_log(), nullptr);
  EXPECT_EQ(server.slow_log()->appended(), kRequests);
  EXPECT_EQ(server.slow_log()->written(), kRequests);
  EXPECT_EQ(server.slow_log()->dropped(), 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int records = 0;
  while (std::getline(in, line)) {
    JsonValue doc;
    ASSERT_TRUE(ParseJson(line, &doc)) << line;
    EXPECT_EQ(doc.Find("reason")->str, "slow");
    EXPECT_EQ(doc.Find("hierarchy")->str, "core");
    // The consecutive-stamp design: phases sum EXACTLY to the total, not
    // within a tolerance.
    const JsonValue* phases = doc.Find("phase_ns");
    ASSERT_NE(phases, nullptr);
    const double sum = phases->Find("queue")->number +
                       phases->Find("decode")->number +
                       phases->Find("search")->number +
                       phases->Find("encode")->number;
    EXPECT_EQ(doc.Find("total_ns")->number, sum) << line;
    // Queue wait is attributed to the connection's first request only.
    if (records > 0) {
      EXPECT_EQ(phases->Find("queue")->number, 0.0);
    }
    ++records;
  }
  EXPECT_EQ(records, kRequests);
  std::remove(path.c_str());
}

TEST(QueryServerTest, TraceSpansPairClientAndServerByTraceId) {
  Tracer tracer;
  tracer.Install();
  std::vector<std::string> client_ids, server_ids;
  {
    LiveEngine live(ErdosRenyiGnm(150, 600, 57));
    ServerOptions options;
    options.workers = 1;
    QueryServer server(&live.manager(), options);
    ASSERT_TRUE(server.Start().ok());

    QueryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    QueryRequest request;
    QueryResponse response;
    constexpr int kRequests = 3;
    for (int i = 0; i < kRequests; ++i) {
      request.metric = kAllMetrics[i];
      // No explicit trace id: the traced client mints one per request.
      ASSERT_TRUE(client.Query(request, &response).ok());
      ASSERT_EQ(response.status, ResponseStatus::kOk);
    }
    server.Stop();  // joins the workers: the tracer is quiescent now

    int phase_spans = 0;
    for (const TraceSpanRecord& record : tracer.CollectSpans()) {
      const std::string& name = record.span.name;
      if (name == "serve.decode" || name == "serve.search" ||
          name == "serve.encode") {
        ++phase_spans;
        ASSERT_FALSE(record.span.args.empty());
        EXPECT_EQ(record.span.args[0].key, "trace_id");
        continue;
      }
      if (name != "client.query" && name != "serve.request") continue;
      std::string id;
      bool sampled_seen = false;
      for (const TraceArg& arg : record.span.args) {
        if (arg.key == "trace_id") {
          ASSERT_TRUE(arg.is_text);
          id = arg.text;
        }
        if (arg.key == "sampled") sampled_seen = true;
      }
      ASSERT_FALSE(id.empty()) << name << " span without a trace id";
      EXPECT_NE(id, "0x0") << name;
      EXPECT_TRUE(sampled_seen) << name;
      (name == "client.query" ? client_ids : server_ids).push_back(id);
    }
    EXPECT_EQ(phase_spans, 3 * kRequests);
    ASSERT_EQ(client_ids.size(), static_cast<size_t>(kRequests));
  }
  tracer.Uninstall();

  // The server's request spans carry exactly the ids the client minted:
  // one Perfetto view pairs the two lanes of each query.
  std::sort(client_ids.begin(), client_ids.end());
  std::sort(server_ids.begin(), server_ids.end());
  EXPECT_EQ(client_ids, server_ids);
}

// The registry-drift regression test: after a run mixing answered
// queries, a malformed frame, and connections shed both by admission
// control and by Stop, every registry counter equals its ServerStats
// mirror (instruments are resolved before any server thread exists, and
// every path that bumps an atomic bumps its instrument).
TEST(QueryServerTest, RegistryCountersMirrorServerStatsExactly) {
  MetricsRegistry registry;
  registry.Install();
  {
    LiveEngine live(ErdosRenyiGnm(150, 600, 59));
    ServerOptions options;
    options.workers = 1;
    options.max_pending = 64;
    QueryServer server(&live.manager(), options);
    ASSERT_TRUE(server.Start().ok());

    // Two answered queries, then a clean close so the one worker frees up
    // for the malformed frame.
    {
      QueryClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      QueryRequest request;
      QueryResponse response;
      ASSERT_TRUE(client.Query(request, &response).ok());
      ASSERT_TRUE(client.Query(request, &response).ok());
    }
    EXPECT_EQ(RawFrameStatus(server.port(), "\x63" "bogus"),
              static_cast<int>(ResponseStatus::kBadRequest));

    // Park the worker on a connection that stays open, then queue two more
    // connections behind it; Stop must shed them through the instrumented
    // path (the historical drift bug: Stop bumped only the atomic).
    QueryClient busy;
    ASSERT_TRUE(busy.Connect("127.0.0.1", server.port()).ok());
    QueryRequest request;
    request.metric = Metric::kConductance;
    QueryResponse response;
    ASSERT_TRUE(busy.Query(request, &response).ok());
    QueryClient parked_a, parked_b;
    ASSERT_TRUE(parked_a.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(parked_b.Connect("127.0.0.1", server.port()).ok());
    // connect() returning only proves the kernel backlog took them; wait
    // until the acceptor has actually queued both.
    for (int spin = 0; spin < 5000; ++spin) {
      JsonValue doc;
      ASSERT_TRUE(ParseJson(server.RenderStatsJson(), &doc));
      if (doc.Find("server")->Find("queue_depth")->number == 2.0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.Stop();
    // The parked connections received the explicit overload frame.
    QueryResponse shed_frame;
    ASSERT_TRUE(parked_a.ReadQueryResponse(&shed_frame).ok());
    EXPECT_EQ(shed_frame.status, ResponseStatus::kOverloaded);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.bad_requests, 1u);
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_EQ(registry.GetCounter("hcd_server_requests_total")->Value(),
              stats.requests);
    EXPECT_EQ(registry.GetCounter("hcd_server_bad_requests_total")->Value(),
              stats.bad_requests);
    EXPECT_EQ(registry.GetCounter("hcd_server_overload_total")->Value(),
              stats.shed);
    EXPECT_EQ(
        registry.GetHistogram("hcd_query_latency_seconds")->TotalCount(),
        stats.requests);
    // Every answered request left the in-flight gauge where it found it.
    EXPECT_EQ(registry.GetGauge("hcd_server_inflight")->Value(), 0.0);
  }
  registry.Uninstall();
}

}  // namespace
}  // namespace hcd::server
