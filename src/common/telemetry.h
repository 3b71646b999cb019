#ifndef HCD_COMMON_TELEMETRY_H_
#define HCD_COMMON_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"

namespace hcd {

/// One named counter attached to a pipeline stage (e.g. peeling levels,
/// union-find shells, tree nodes created).
struct StageCounter {
  std::string name;
  uint64_t value = 0;
};

/// One completed pipeline stage: a label, its wall time, and any cheap
/// counters the stage chose to report.
struct StageRecord {
  std::string stage;
  double seconds = 0.0;
  std::vector<StageCounter> counters;
};

/// Accumulates stage records in order and renders them as a
/// machine-readable JSON report (used by `hcd_cli --json`). Stages reach it
/// through a StageTelemetryBinding on the recording thread.
class StageTelemetry {
 public:
  void RecordStage(const StageRecord& record) { records_.push_back(record); }

  const std::vector<StageRecord>& records() const { return records_; }

  /// Sum of all recorded stage times.
  double TotalSeconds() const;

  /// Label of the longest recorded stage, or "" when empty.
  const std::string& PeakStage() const;

  /// Number of records whose label equals `stage`.
  size_t CountStage(const std::string& stage) const;

  /// Total seconds across records whose label equals `stage`.
  double StageSeconds(const std::string& stage) const;

  /// `{"stages":[{"name":...,"seconds":...,"counters":{...}},...],
  ///   "total_seconds":...,"peak_stage":...}`.
  std::string ToJson() const;

  void Clear() { records_.clear(); }

 private:
  std::vector<StageRecord> records_;
};

/// RAII binding of a StageTelemetry to the calling thread: while it lives,
/// every ScopedStage finished on this thread also lands in `telemetry`.
/// Bindings nest; the destructor restores whatever was bound before, so a
/// scope may re-bind the telemetry that is already bound.
///
/// The binding is per thread by design. Build-phase stages (load,
/// decomposition, construction, search index building) finish on the
/// orchestrating thread, never inside a parallel region, so a binding on
/// that thread sees every one of them; engines driven from different
/// threads record side by side without sharing anything.
class StageTelemetryBinding {
 public:
  explicit StageTelemetryBinding(StageTelemetry* telemetry)
      : previous_(bound_) {
    bound_ = telemetry;
  }
  ~StageTelemetryBinding() { bound_ = previous_; }

  StageTelemetryBinding(const StageTelemetryBinding&) = delete;
  StageTelemetryBinding& operator=(const StageTelemetryBinding&) = delete;

  /// The telemetry bound to the calling thread, or null.
  static StageTelemetry* Current() { return bound_; }

 private:
  static inline thread_local StageTelemetry* bound_ = nullptr;
  StageTelemetry* previous_;
};

/// RAII stage timer: starts on construction and, on destruction, reports
/// the stage to whichever of three receivers are present:
///   - the StageTelemetry bound to the calling thread gets a StageRecord;
///   - Tracer::Current() gets a span (counters become span args);
///   - MetricsRegistry::Current() observes the wall time in the
///     `hcd_stage_seconds{stage=...}` histogram family and bumps
///     `hcd_stage_runs_total` / `hcd_stage_counter_total`.
/// With none of them, every operation reduces to pointer tests (one
/// thread-local and two relaxed atomic loads at construction) — no clock
/// read, no allocation — which is how un-instrumented library calls stay
/// free.
class ScopedStage {
 public:
  explicit ScopedStage(std::string stage)
      : telemetry_(StageTelemetryBinding::Current()),
        tracer_(Tracer::Current()),
        registry_(MetricsRegistry::Current()) {
    if (!Active()) return;
    record_.stage = std::move(stage);
    if (tracer_ != nullptr) start_ns_ = tracer_->NowNs();
  }
  ~ScopedStage() {
    if (!Active()) return;
    Finish();
  }

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

  /// Attaches a counter to the stage record (no-op when inactive).
  void AddCounter(std::string name, uint64_t value) {
    if (Active()) record_.counters.push_back({std::move(name), value});
  }

 private:
  bool Active() const {
    return telemetry_ != nullptr || tracer_ != nullptr || registry_ != nullptr;
  }

  /// Out-of-line slow path: reports to the bound telemetry, the tracer and
  /// the metrics registry (whichever are present).
  void Finish();

  StageTelemetry* telemetry_;
  Tracer* tracer_;
  MetricsRegistry* registry_;
  StageRecord record_;
  Timer timer_;
  uint64_t start_ns_ = 0;
};

/// Escapes `s` for inclusion in a JSON string literal (quotes, backslashes
/// and control characters).
std::string JsonEscape(const std::string& s);

/// `value` if it is a finite number, else 0.0. Every ratio printed into a
/// JSON report must pass through this: a zero-duration or zero-read run
/// otherwise divides by zero and emits `inf`/`nan`, which no strict JSON
/// parser accepts (json.loads, the test parser in tests/test_util.h, most
/// dashboards).
inline double FiniteOrZero(double value) {
  return __builtin_isfinite(value) ? value : 0.0;
}

}  // namespace hcd

#endif  // HCD_COMMON_TELEMETRY_H_
