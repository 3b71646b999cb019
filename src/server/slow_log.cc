#include "server/slow_log.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/trace.h"

namespace hcd::server {
namespace {

void AppendField(std::string* out, const char* key, uint64_t value) {
  out->append("\"");
  out->append(key);
  out->append("\":");
  out->append(std::to_string(value));
}

void AppendField(std::string* out, const char* key, bool value) {
  out->append("\"");
  out->append(key);
  out->append("\":");
  out->append(value ? "true" : "false");
}

/// `value` must not need JSON escaping (every caller passes a fixed
/// identifier: reason, regime, hierarchy or metric name, hex trace id).
void AppendField(std::string* out, const char* key, const char* value) {
  out->append("\"");
  out->append(key);
  out->append("\":\"");
  out->append(value);
  out->append("\"");
}

size_t RoundUpPow2(size_t n) {
  size_t pow2 = 2;
  while (pow2 < n) pow2 <<= 1;
  return pow2;
}

}  // namespace

std::string FormatSlowLogRecord(const SlowLogRecord& record) {
  const RequestTimings& t = record.timings;
  std::string out;
  out.reserve(320);
  out += '{';
  AppendField(&out, "ts_unix_ms", record.ts_unix_ms);
  out += ',';
  AppendField(&out, "reason", record.reason);
  out += ',';
  AppendField(&out, "trace_id", TraceIdHex(t.trace_id).c_str());
  out += ',';
  AppendField(&out, "sampled", t.sampled);
  out += ',';
  AppendField(&out, "regime", record.regime);
  out += ',';
  AppendField(&out, "hierarchy", HierarchyKindName(record.hierarchy));
  out += ',';
  AppendField(&out, "metric", MetricName(record.metric));
  out += ',';
  AppendField(&out, "k", uint64_t{record.k});
  out += ',';
  AppendField(&out, "found", record.found);
  out += ',';
  AppendField(&out, "overloaded", record.overloaded);
  out += ',';
  AppendField(&out, "epoch", record.epoch);
  out += ',';
  AppendField(&out, "queue_depth", record.queue_depth);
  out += ',';
  AppendField(&out, "total_ns", t.TotalNs());
  out += ",\"phase_ns\":{";
  AppendField(&out, "queue", t.queue_ns);
  out += ',';
  AppendField(&out, "decode", t.decode_ns);
  out += ',';
  AppendField(&out, "search", t.search_ns);
  out += ',';
  AppendField(&out, "encode", t.encode_ns);
  out += "}}";
  return out;
}

SlowQueryLog::SlowQueryLog(Options options) : options_(std::move(options)) {
  const size_t capacity = RoundUpPow2(std::max<size_t>(options_.capacity, 2));
  cells_ = std::vector<Cell>(capacity);
  mask_ = capacity - 1;
  for (size_t i = 0; i < capacity; ++i) {
    cells_[i].sequence.store(i, std::memory_order_relaxed);
  }
}

SlowQueryLog::~SlowQueryLog() { Stop(); }

Status SlowQueryLog::Start() {
  HCD_CHECK(!started_) << "slow-query log already started";
  file_ = std::fopen(options_.path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IoError("cannot open slow log " + options_.path + ": " +
                           std::strerror(errno));
  }
  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  flusher_ = std::thread([this] { FlusherLoop(); });
  return Status::Ok();
}

void SlowQueryLog::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (flusher_.joinable()) flusher_.join();
  std::fclose(file_);
  file_ = nullptr;
  started_ = false;
}

bool SlowQueryLog::Append(std::string&& line) {
  size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const size_t seq = cell.sequence.load(std::memory_order_acquire);
    const intptr_t diff =
        static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
    if (diff == 0) {
      // The cell is free for ticket `pos`; claim it, write, publish.
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.line = std::move(line);
        cell.sequence.store(pos + 1, std::memory_order_release);
        appended_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    } else if (diff < 0) {
      // The cell still holds an unconsumed line a full lap behind: the
      // ring is full. Drop rather than block the serving worker.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool SlowQueryLog::TryPop(std::string* line) {
  Cell& cell = cells_[dequeue_pos_ & mask_];
  const size_t seq = cell.sequence.load(std::memory_order_acquire);
  if (static_cast<intptr_t>(seq) -
          static_cast<intptr_t>(dequeue_pos_ + 1) <
      0) {
    return false;  // not yet published
  }
  *line = std::move(cell.line);
  cell.line.clear();
  // Free the cell for its next-lap producer.
  cell.sequence.store(dequeue_pos_ + mask_ + 1, std::memory_order_release);
  ++dequeue_pos_;
  return true;
}

void SlowQueryLog::FlusherLoop() {
  std::string line;
  auto drain = [&] {
    bool any = false;
    while (TryPop(&line)) {
      any = true;
      std::fwrite(line.data(), 1, line.size(), file_);
      std::fputc('\n', file_);
      written_.fetch_add(1, std::memory_order_relaxed);
    }
    if (any) std::fflush(file_);
  };
  while (!stop_.load(std::memory_order_acquire)) {
    drain();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.flush_interval_ms));
  }
  // Producers are quiesced before Stop() (the server joins its workers
  // first), so one last drain empties the ring.
  drain();
}

}  // namespace hcd::server
