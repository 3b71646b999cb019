#include "common/telemetry.h"

#include <algorithm>
#include <cstdio>

namespace hcd {
namespace {

std::string DoubleToJson(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

const std::string kEmpty;

}  // namespace

void ScopedStage::Finish() {
  record_.seconds = timer_.Seconds();
  if (tracer_ != nullptr) {
    TraceSpan span;
    span.name = record_.stage;
    span.ts_ns = start_ns_;
    span.dur_ns = tracer_->NowNs() - start_ns_;
    span.args.reserve(record_.counters.size());
    for (const StageCounter& c : record_.counters) {
      span.args.push_back({c.name, c.value, "", false});
    }
    tracer_->RecordSpan(std::move(span));
  }
  if (registry_ != nullptr) {
    const MetricLabels stage_label = {{"stage", record_.stage}};
    registry_
        ->GetHistogram("hcd_stage_seconds",
                       "Wall time of pipeline stages by stage name",
                       stage_label)
        ->Observe(record_.seconds);
    registry_
        ->GetCounter("hcd_stage_runs_total",
                     "Completed pipeline stage executions", stage_label)
        ->Increment();
    for (const StageCounter& c : record_.counters) {
      registry_
          ->GetCounter("hcd_stage_counter_total",
                       "Accumulated per-stage detail counters",
                       {{"stage", record_.stage}, {"counter", c.name}})
          ->Increment(c.value);
    }
  }
  if (telemetry_ != nullptr) telemetry_->RecordStage(record_);
}

double StageTelemetry::TotalSeconds() const {
  double total = 0.0;
  for (const StageRecord& r : records_) total += r.seconds;
  return total;
}

const std::string& StageTelemetry::PeakStage() const {
  const StageRecord* peak = nullptr;
  for (const StageRecord& r : records_) {
    if (peak == nullptr || r.seconds > peak->seconds) peak = &r;
  }
  return peak != nullptr ? peak->stage : kEmpty;
}

size_t StageTelemetry::CountStage(const std::string& stage) const {
  size_t count = 0;
  for (const StageRecord& r : records_) {
    if (r.stage == stage) ++count;
  }
  return count;
}

double StageTelemetry::StageSeconds(const std::string& stage) const {
  double total = 0.0;
  for (const StageRecord& r : records_) {
    if (r.stage == stage) total += r.seconds;
  }
  return total;
}

std::string StageTelemetry::ToJson() const {
  std::string out = "{\"stages\":[";
  for (size_t i = 0; i < records_.size(); ++i) {
    const StageRecord& r = records_[i];
    if (i > 0) out += ',';
    out.append("{\"name\":\"");
    out.append(JsonEscape(r.stage));
    out.append("\",\"seconds\":");
    out.append(DoubleToJson(r.seconds));
    if (!r.counters.empty()) {
      out.append(",\"counters\":{");
      for (size_t c = 0; c < r.counters.size(); ++c) {
        if (c > 0) out += ',';
        out += '"';
        out.append(JsonEscape(r.counters[c].name));
        out.append("\":");
        out.append(std::to_string(r.counters[c].value));
      }
      out += '}';
    }
    out += '}';
  }
  out.append("],\"total_seconds\":");
  out.append(DoubleToJson(TotalSeconds()));
  out.append(",\"peak_stage\":\"");
  out.append(JsonEscape(PeakStage()));
  out.append("\"}");
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace hcd
