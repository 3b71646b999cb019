// End-to-end graph ingest benchmark: writes a large synthetic edge-list
// text file, then sweeps the parallel ingest path (read -> chunked parse
// -> deterministic remap -> parallel CSR build) over thread counts, plus
// the validated binary loader over the converted snapshot.
//
// The acceptance target for the ingest layer is >= 2x end-to-end text-load
// speedup at 8 threads vs 1 thread on a >= 10M-edge list (hardware
// permitting; this container may expose a single core — the hardware
// banner says what the numbers mean).
//
// Flags / env:
//   --json            machine-readable report with per-stage telemetry
//   HCD_BENCH_SMALL=1 200k edges instead of 10M (CI smoke)

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "graph/ingest.h"
#include "graph/io.h"

namespace {

struct Run {
  const char* format;
  int threads;
  double seconds;
  std::string telemetry_json;
};

/// Writes `edges` random "u v" lines over ~edges/16 distinct raw ids
/// (skewed toward low ids so duplicates and self-loops occur, exercising
/// the normalization path). Returns bytes written.
uint64_t WriteRandomEdgeList(const std::string& path, uint64_t edges,
                             uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  HCD_CHECK(f != nullptr) << "cannot write " << path;
  hcd::Rng rng(seed);
  const uint64_t id_space = std::max<uint64_t>(16, edges / 16);
  std::string buf;
  buf.reserve(1 << 22);
  char line[64];
  std::fputs("# synthetic ingest benchmark graph\n", f);
  for (uint64_t i = 0; i < edges; ++i) {
    const uint64_t u = rng.Uniform(id_space);
    const uint64_t v = rng.Uniform(id_space);
    const int len = std::snprintf(line, sizeof(line), "%llu %llu\n",
                                  static_cast<unsigned long long>(u),
                                  static_cast<unsigned long long>(v));
    buf.append(line, static_cast<size_t>(len));
    if (buf.size() > (1 << 22) - 64) {
      std::fwrite(buf.data(), 1, buf.size(), f);
      buf.clear();
    }
  }
  std::fwrite(buf.data(), 1, buf.size(), f);
  const long bytes = std::ftell(f);
  std::fclose(f);
  return static_cast<uint64_t>(bytes);
}

Run TimeIngest(const char* format, const std::string& path, int threads,
               int reps) {
  Run run{format, threads, 0.0, ""};
  for (int r = 0; r < reps; ++r) {
    hcd::StageTelemetry telemetry;
    hcd::StageTelemetryBinding bind(&telemetry);
    hcd::IngestOptions options;
    options.io_threads = threads;
    hcd::Graph g;
    hcd::Timer timer;
    const hcd::Status s =
        std::strcmp(format, "text") == 0
            ? hcd::IngestEdgeListText(path, options, &g)
            : hcd::IngestBinary(path, options, &g);
    const double seconds = timer.Seconds();
    HCD_CHECK(s.ok()) << s.ToString();
    if (r == 0 || seconds < run.seconds) {
      run.seconds = seconds;
      run.telemetry_json = telemetry.ToJson();
    }
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  const bool small = std::getenv("HCD_BENCH_SMALL") != nullptr;
  const uint64_t edges = small ? 200'000 : 10'000'000;
  const std::string text_path =
      "/tmp/hcd_bench_ingest_" + std::to_string(::getpid()) + ".txt";
  const std::string bin_path =
      "/tmp/hcd_bench_ingest_" + std::to_string(::getpid()) + ".bin";

  if (!json) {
    hcd::bench::PrintHardwareBanner("Graph ingest: parallel load scaling");
    std::printf("generating %llu-edge text file...\n",
                static_cast<unsigned long long>(edges));
  }
  const uint64_t bytes = WriteRandomEdgeList(text_path, edges, 7);
  {
    hcd::Graph g;
    hcd::IngestOptions options;
    HCD_CHECK(hcd::IngestEdgeListText(text_path, options, &g).ok());
    HCD_CHECK(hcd::SaveBinary(g, bin_path).ok());
  }

  const int reps = 2;
  std::vector<Run> runs;
  for (int t : hcd::bench::ThreadSweep()) {
    runs.push_back(TimeIngest("text", text_path, t, reps));
  }
  for (int t : hcd::bench::ThreadSweep()) {
    runs.push_back(TimeIngest("binary", bin_path, t, reps));
  }

  double text1 = 0.0;
  double text_max = 0.0;
  for (const Run& r : runs) {
    if (std::strcmp(r.format, "text") != 0) continue;
    if (r.threads == 1) text1 = r.seconds;
    text_max = r.seconds;  // last sweep entry = max thread count
  }

  if (json) {
    std::string out = "{\"bench\":\"ingest\",\"edges\":" +
                      std::to_string(edges) +
                      ",\"bytes\":" + std::to_string(bytes) +
                      ",\"hardware_threads\":" +
                      std::to_string(hcd::HardwareThreads()) + ",\"runs\":[";
    for (size_t i = 0; i < runs.size(); ++i) {
      if (i > 0) out += ',';
      char head[128];
      std::snprintf(head, sizeof(head),
                    "{\"format\":\"%s\",\"threads\":%d,\"seconds\":%.6f,"
                    "\"telemetry\":",
                    runs[i].format, runs[i].threads, runs[i].seconds);
      out += head;
      out += runs[i].telemetry_json;
      out += '}';
    }
    char tail[64];
    std::snprintf(tail, sizeof(tail), "],\"text_speedup_max_vs_1\":%.3f}\n",
                  text_max > 0 ? text1 / text_max : 0.0);
    out += tail;
    std::fputs(out.c_str(), stdout);
  } else {
    std::printf("\n%-8s %-8s %10s %9s\n", "format", "threads", "seconds",
                "speedup");
    for (const Run& r : runs) {
      double base = r.seconds;
      for (const Run& b : runs) {
        if (b.threads == 1 && std::strcmp(b.format, r.format) == 0) {
          base = b.seconds;
        }
      }
      std::printf("%-8s %-8d %10.3f %8.2fx\n", r.format, r.threads, r.seconds,
                  base / r.seconds);
    }
    std::printf("\ntext load at max threads: %.2fx over 1 thread "
                "(file: %.1f MB, %llu edge lines)\n",
                text_max > 0 ? text1 / text_max : 0.0, bytes / 1048576.0,
                static_cast<unsigned long long>(edges));
  }

  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
  return 0;
}
