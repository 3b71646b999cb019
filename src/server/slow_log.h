#ifndef HCD_SERVER_SLOW_LOG_H_
#define HCD_SERVER_SLOW_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "hcd/hierarchy_kind.h"
#include "search/metrics.h"

namespace hcd::server {

/// Per-request phase attribution in nanoseconds, filled by a worker from
/// consecutive monotonic stamps (so the phase fields sum exactly to the
/// request's total). One instance lives in each worker and is reused
/// across requests. `queue_ns` is the connection's wait in the pending
/// queue, attributed to its first request (later requests on the same
/// connection never waited, so it is 0 for them).
struct RequestTimings {
  uint64_t trace_id = 0;
  bool sampled = false;
  uint64_t queue_ns = 0;
  uint64_t decode_ns = 0;
  uint64_t search_ns = 0;  ///< snapshot acquire, lookup, member echo
  uint64_t encode_ns = 0;  ///< response encode + socket write

  uint64_t TotalNs() const {
    return queue_ns + decode_ns + search_ns + encode_ns;
  }
  void ResetPhases() {
    trace_id = 0;
    sampled = false;
    queue_ns = decode_ns = search_ns = encode_ns = 0;
  }
};

/// Everything one slow-log line records, gathered by the worker after the
/// response is on the wire.
struct SlowLogRecord {
  uint64_t ts_unix_ms = 0;      ///< wall clock, for correlating across hosts
  const char* reason = "slow";  ///< "slow" (over threshold) or "sampled"
  const char* regime = "global";
  HierarchyKind hierarchy = HierarchyKind::kCore;
  Metric metric = Metric::kAverageDegree;
  uint32_t k = 0;
  bool found = false;
  bool overloaded = false;  ///< pending queue was non-empty at dispatch
  uint64_t epoch = 0;
  uint64_t queue_depth = 0;  ///< pending connections when this one was popped
  RequestTimings timings;
};

/// One JSONL line (no trailing newline); split out of the log so tests can
/// validate the schema without a file or a flusher thread.
std::string FormatSlowLogRecord(const SlowLogRecord& record);

/// Append-only JSONL sink for slow-query records that never blocks a
/// serving worker: Append pushes the formatted line into a bounded
/// lock-free MPSC ring (Vyukov-style sequence-stamped cells) and a
/// dedicated flusher thread drains it to the file every few milliseconds.
/// When producers outrun the flusher the ring refuses the push and the
/// line is counted in dropped() instead of stalling the request path.
class SlowQueryLog {
 public:
  struct Options {
    std::string path;
    /// Ring capacity in lines (rounded up to a power of two).
    size_t capacity = 4096;
    int flush_interval_ms = 10;
  };

  explicit SlowQueryLog(Options options);
  ~SlowQueryLog();

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Opens (appends to) the file and starts the flusher thread.
  Status Start();

  /// Drains whatever is still queued, joins the flusher and closes the
  /// file. Idempotent.
  void Stop();

  /// Enqueues one line; lock-free, callable from any number of workers.
  /// False (and one more dropped()) when the ring is full.
  bool Append(std::string&& line);

  uint64_t appended() const {
    return appended_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t written() const { return written_.load(std::memory_order_relaxed); }

 private:
  /// One ring slot. `sequence` implements the Vyukov handshake: it reads
  /// `index` when the cell is free for the producer that owns ticket
  /// `index`, and `index + 1` once the line is fully written and visible
  /// to the consumer.
  struct Cell {
    std::atomic<size_t> sequence{0};
    std::string line;
  };

  void FlusherLoop();
  /// Pops one line if available (single consumer: the flusher).
  bool TryPop(std::string* line);

  Options options_;
  std::vector<Cell> cells_;
  size_t mask_ = 0;
  std::atomic<size_t> enqueue_pos_{0};
  size_t dequeue_pos_ = 0;  ///< flusher-only

  std::FILE* file_ = nullptr;
  std::thread flusher_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> written_{0};
};

}  // namespace hcd::server

#endif  // HCD_SERVER_SLOW_LOG_H_
