#ifndef HCD_SERVER_PROTOCOL_H_
#define HCD_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/types.h"
#include "hcd/hierarchy_kind.h"
#include "search/metrics.h"

namespace hcd::server {

/// Wire format of the query server (docs/SERVING.md has the byte-level
/// diagrams). Every message is one length-prefixed frame:
///
///   u32 payload_length | payload bytes
///
/// followed immediately by the payload. All integers are little-endian
/// fixed-width; doubles travel as their IEEE-754 bit pattern in a u64, so
/// a score round-trips bit-identically. A frame's payload is capped at
/// kMaxPayloadBytes — a peer announcing more is a protocol error and the
/// connection is closed (this bounds per-connection memory against
/// garbage or hostile length prefixes).
///
/// Request payload:
///   u8  type                    (MessageType)
///   -- type == kQuery:
///   u8  metric                  (index into kAllMetrics)
///   u8  hierarchy               (HierarchyKind: 0 core, 1 truss, 2 nucleus)
///   u32 k                       (0 = no level constraint)
///   u32 max_return_vertices     (cap on vertices echoed back)
///   u32 num_vertices
///   u32 vertices[num_vertices]
///   -- optionally (trace context, frame version 2):
///   u64 trace_id                (nonzero request-scoped id)
///   u8  sampled                 (0 or 1)
///
/// The trace context is a strictly optional tail: a version-1 frame ends
/// at the vertex array and decodes with trace_id == 0, so old clients keep
/// working against new servers; a version-2 frame carries exactly nine
/// more bytes. Any other tail length (or a sampled byte > 1) is malformed.
/// Servers attach the trace id to every span recorded for the request, so
/// one Perfetto view lines up the client's and the server's lanes of the
/// same query.
///
/// Query semantics for hierarchy == core: with an empty vertex set, the
/// best-scoring k-core under `metric` over all tree nodes of level >= k
/// (k = 0 is exactly QuerySnapshot::Search). With vertices, the k-core
/// containing *all* of them (the shared ancestor-walk node), scored under
/// `metric`; `found` is false when no such core exists.
///
/// For hierarchy == truss / nucleus the server must be configured with a
/// matching element index (otherwise it answers found = false without
/// closing the connection). The `vertices` field then carries *element
/// ids* (edge ids / triangle ids of the frozen index), `metric` is
/// ignored (element communities score by density), and the semantics
/// mirror the core regimes: empty ids + k == 0 is the densest community,
/// empty ids + k > 0 the densest community of level >= k, and non-empty
/// ids the community containing all of them. The echoed vertices are the
/// community's *member graph vertices* (sorted), `core_size` counts its
/// elements, and `score` is its density.
///
/// Response payload:
///   u8  status                  (ResponseStatus)
///   -- status == kOk, answering kQuery:
///   u64 epoch                   (snapshot generation that answered)
///   u8  found
///   u32 level                   (k of the answering core)
///   u64 core_size
///   u64 score_bits              (IEEE-754 double)
///   u32 num_vertices            (<= requested max_return_vertices and
///                                <= kMaxResponseVertices)
///   u32 vertices[num_vertices]
///   -- status == kOk, answering kMetrics:
///   the Prometheus text exposition, raw bytes to end of frame
///   -- status == kOk, answering kStats:
///   the server's live-stats JSON snapshot (rolling 1s/10s/60s windows of
///   QPS, error/shed rates and per-phase latency quantiles, plus
///   lifetime totals), raw bytes to end of frame
///   -- status == kOverloaded / kBadRequest: nothing further; an
///   overloaded server sends this frame right after accept and closes.
enum class MessageType : uint8_t {
  kQuery = 1,
  kMetrics = 2,
  kStats = 3,
};

enum class ResponseStatus : uint8_t {
  kOk = 0,
  kOverloaded = 1,
  kBadRequest = 2,
};

/// Hard cap on one frame's payload (1 MiB): bigger than any legitimate
/// query or metrics dump, small enough that a bad length prefix cannot
/// make a worker allocate unbounded memory.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;

/// Bytes of a kOk query response before its vertex array (status through
/// num_vertices), and the most vertices that still fit one frame: a
/// server echoes at most this many core members whatever the request's
/// max_return_vertices (core_size still reports the full size).
inline constexpr uint32_t kQueryResponseHeaderBytes = 34;
inline constexpr uint32_t kMaxResponseVertices =
    (kMaxPayloadBytes - kQueryResponseHeaderBytes) / 4;

struct QueryRequest {
  Metric metric = Metric::kAverageDegree;
  HierarchyKind hierarchy = HierarchyKind::kCore;
  uint32_t k = 0;
  uint32_t max_return_vertices = 0;
  std::vector<VertexId> vertices;
  /// Request-scoped trace context; 0 means "none" and encodes as a
  /// version-1 frame with no trailing trace bytes.
  uint64_t trace_id = 0;
  bool sampled = false;
};

struct QueryResponse {
  ResponseStatus status = ResponseStatus::kOk;
  uint64_t epoch = 0;
  bool found = false;
  uint32_t level = 0;
  uint64_t core_size = 0;
  double score = 0.0;
  std::vector<VertexId> vertices;
};

// --- payload encoding (no framing) -----------------------------------------

std::string EncodeQueryRequest(const QueryRequest& request);
std::string EncodeMetricsRequest();
std::string EncodeStatsRequest();
std::string EncodeQueryResponse(const QueryResponse& response);
std::string EncodeMetricsResponse(std::string_view prometheus_text);
/// The one-byte shed/bad-request frames.
std::string EncodeStatusOnlyResponse(ResponseStatus status);

/// Decoders are strict: exact length, in-range enum values, and no
/// trailing bytes (except the metrics response, whose tail IS the text).
/// They return false on any malformed payload and leave *out unspecified.
bool DecodeRequestType(std::string_view payload, MessageType* out);
bool DecodeQueryRequest(std::string_view payload, QueryRequest* out);
bool DecodeQueryResponse(std::string_view payload, QueryResponse* out);
/// Splits a response payload into status + text. Shared by the kMetrics
/// and kStats responses, whose payloads are shaped identically (one status
/// byte, then the document to end of frame).
bool DecodeMetricsResponse(std::string_view payload, ResponseStatus* status,
                           std::string* text);

/// Appends `payload` to `out` as one frame (length prefix + bytes).
void AppendFrame(std::string* out, std::string_view payload);

}  // namespace hcd::server

#endif  // HCD_SERVER_PROTOCOL_H_
