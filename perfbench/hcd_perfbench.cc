// Workload program of the repository benchmark (see perfbench/README.md).
//
// Runs one workload against the library's public API and prints one JSON
// object on the last line of stdout: every metric it measured (name, value,
// unit), the sample count behind each one, the output checks, and the
// provenance of the run. perfbench/run.py builds this program, runs it,
// and turns that object into the benchmark's result line.
//
//   hcd_perfbench --workload build-fs|serve-it|live-it --seed N --seconds S
//                 --trace 0|1 --work-dir DIR [--trace-out FILE] [--small]
//                 [--corrupt CHECK]
//
// Every workload runs the same steps over its own graph, in its own
// proportions, so every metric is measured on every workload. The steps are
// interleaved in rounds that repeat until --seconds is used up, so each
// metric's samples spread over the whole run rather than one stretch of it
// (on a shared host the machine's speed drifts over seconds). A round is:
//   build  - graph file -> Load -> Coreness -> Rank -> Forest -> Flat ->
//            Searcher -> Snapshot -> one Search per metric, at 4 threads,
//            then kBuildThreads such 1-thread iterations side by side;
//   serve  - a slice of loopback serving: an in-process QueryServer
//            (2 workers) over the served LiveEngine's snapshots, driven by 2
//            closed-loop QueryClient connections that stay open all run;
//   update - LiveEngine::ApplyBatch of seeded random edge toggles: on
//            live-it back to back during the serve slice on the served
//            engine, elsewhere unloaded after it on a second engine that is
//            never served, so that serving there stays read-only.
// Every set-up and round also times a fixed reference kernel, and every time
// the run reports is scaled to a reference host speed (see SpeedReference).
//
// With --trace 1 the program records its own spans around each call into a
// layer (graph, core, hcd, search, engine, server), on every other round,
// writes them as a Chrome trace and reports each layer's share of self time
// plus the traced-vs-untraced overhead. Spans inside the library are not
// recorded.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include <time.h>
#include <unistd.h>

#include "common/random.h"
#include "common/telemetry.h"
#include "core/core_decomposition.h"
#include "core/dynamic.h"
#include "engine/engine.h"
#include "engine/live.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "parallel/omp_utils.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

#ifndef HCD_BENCH_BUILD_TYPE
#define HCD_BENCH_BUILD_TYPE "unknown"
#endif

namespace hcd::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Threads of the multi-thread build iterations, and the number of 1-thread
// iterations run side by side: one per core keeps the host's load the same
// as in a 4-thread iteration and takes four samples per set.
constexpr int kBuildThreads = 4;
constexpr int kLiveThreads = 2;    // OpenMP threads of the live writer
constexpr int kServerWorkers = 2;
constexpr int kConnections = 2;
// The host's steal time (CPU time the hypervisor gave to other guests, from
// /proc/stat) is read around every timed sample and serve slice; timings come
// from the samples and slices with at most the median steal. On a shared
// host the tail otherwise follows the neighbours' load (a serve-it run with
// 18 % steal had a p99 of 856 us against 48 us with 3 %).
constexpr size_t kMaxTraceSpansPerName = 20000;
// Argmax share of the request mix. Uncached argmax answers on IT take a full
// tree scan (~300 us) and the rest ~25 us, so at a 50 % share the median
// request sits on the edge between the two and jumps between them from run
// to run; at 40 % it stays among the fast answers.
constexpr double kArgmaxShare = 0.4;
constexpr int kSetupRepeats = 3;
constexpr int kMinRounds = 3;
constexpr size_t kFinalSample = 200;      // live-it final-epoch checks

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   Clock::now().time_since_epoch())
                                   .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Steal time summed over all CPUs, in clock ticks; 0 where /proc/stat has
/// no steal column.
uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t field = 0;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> field; ++i) {
  }
  return cpu == "cpu" && stat ? field : 0;
}

// ---------------------------------------------------------------------------
// Samples and results.

/// Nearest-rank quantile of the ascending `sorted` (q in [0, 1]); 0 for an
/// empty sample.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return SortedQuantile(v, q);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Host steal during a sample as a share of the CPU time the machine had in
/// it.
double StealShare(uint64_t ticks, double seconds) {
  static const double ticks_per_second =
      static_cast<double>(sysconf(_SC_CLK_TCK)) *
      std::thread::hardware_concurrency();
  return seconds > 0 ? static_cast<double>(ticks) / (seconds * ticks_per_second)
                     : 0.0;
}

/// Steal shares up to this count as a quiet host.
constexpr double kQuietStealShare = 0.02;

/// The samples taken while the host stole at most kQuietStealShare of the
/// machine, or at most the median sample's share when that is higher: the
/// timings of a run come from all of it on a quiet host and from its
/// quieter half on a busy one, so that the load of other guests on a shared
/// host moves them less. `share(x)` gives a sample's steal share.
template <typename T, typename Share>
std::vector<const T*> Quiet(const std::vector<T>& samples, Share share) {
  std::vector<double> shares;
  for (const T& x : samples) shares.push_back(share(x));
  const double threshold = std::max(Median(shares), kQuietStealShare);
  std::vector<const T*> quiet;
  for (const T& x : samples) {
    if (share(x) <= threshold) quiet.push_back(&x);
  }
  return quiet;
}

struct MetricValue {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Everything the run reports, printed as one JSON object at the end.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_[name] = {value, unit, samples};
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_[name] = {ok, detail};
    if (!ok) std::fprintf(stderr, "check %s FAILED: %s\n", name.c_str(),
                          detail.c_str());
  }
  void Attempt(uint64_t n, uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  void Provenance(const std::string& key, const std::string& json_value) {
    provenance_[key] = json_value;
  }
  void SetServerStats(std::string json) { server_stats_ = std::move(json); }
  /// Every time (units s, ms, us) is printed multiplied by `scale`, and
  /// every rate (1/s) divided by it.
  void SetTimeScale(double scale) { time_scale_ = scale; }

  bool correct() const {
    if (failed_ != 0) return false;
    for (const auto& [name, check] : checks_) {
      if (!check.first) return false;
    }
    return !checks_.empty();
  }

  std::string ToJson() const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\":" << (correct() ? "true" : "false")
        << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
        << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      double value = m.value;
      if (m.unit == "s" || m.unit == "ms" || m.unit == "us") {
        value *= time_scale_;
      } else if (m.unit == "1/s") {
        value /= time_scale_;
      }
      out << (first ? "" : ",") << '"' << name << "\":{\"value\":"
          << (std::isfinite(value) ? value : 0.0) << ",\"unit\":\""
          << m.unit << "\",\"samples\":" << m.samples << '}';
      first = false;
    }
    out << "},\"checks\":{";
    first = true;
    for (const auto& [name, check] : checks_) {
      out << (first ? "" : ",") << '"' << name << "\":{\"ok\":"
          << (check.first ? "true" : "false") << ",\"detail\":\""
          << JsonEscape(check.second) << "\"}";
      first = false;
    }
    out << "},\"provenance\":{";
    first = true;
    for (const auto& [key, value] : provenance_) {
      out << (first ? "" : ",") << '"' << key << "\":" << value;
      first = false;
    }
    out << "},\"server_stats\":"
        << (server_stats_.empty() ? "null" : server_stats_) << '}';
    return out.str();
  }

 private:
  std::map<std::string, MetricValue> metrics_;
  std::map<std::string, std::pair<bool, std::string>> checks_;
  std::map<std::string, std::string> provenance_;
  std::string server_stats_;
  double time_scale_ = 1.0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// The benchmark's own spans. One per call into a layer, named
// "<layer>.<call>"; each records its self time (duration minus the time of
// its child spans on the same thread). Buffers are per thread and read only
// after every recording thread has been joined.

struct SpanRecord {
  const char* name;
  uint32_t tid;
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t self_ns;
};

class SpanLog {
 public:
  /// The calling thread's buffer, registered on first use.
  struct ThreadSpans {
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
  };

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  ThreadSpans* Local() {
    thread_local ThreadSpans* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadSpans>());
      local = buffers_.back().get();
      local->tid = static_cast<uint32_t>(buffers_.size());
    }
    return local;
  }

  /// All spans; call only when no thread is recording.
  std::vector<SpanRecord> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    return all;
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;
};

SpanLog g_spans;

class BenchSpan {
 public:
  explicit BenchSpan(const char* name) : name_(name), on_(g_spans.enabled()) {
    if (!on_) return;
    Children().push_back(0);
    start_ns_ = NowNs();
  }
  ~BenchSpan() {
    if (!on_) return;
    const uint64_t dur = NowNs() - start_ns_;
    std::vector<uint64_t>& children = Children();
    const uint64_t child_ns = children.back();
    children.pop_back();
    if (!children.empty()) children.back() += dur;
    SpanLog::ThreadSpans* local = g_spans.Local();
    local->spans.push_back({name_, local->tid, start_ns_, dur,
                            dur > child_ns ? dur - child_ns : 0});
  }

  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  static std::vector<uint64_t>& Children() {
    thread_local std::vector<uint64_t> stack;
    return stack;
  }

  const char* name_;
  bool on_;
  uint64_t start_ns_ = 0;
};

/// Times one call into a layer: records its span (when tracing) and returns
/// the call's wall time in seconds through `*seconds`.
template <typename Fn>
auto TimedCall(const char* span, double* seconds, Fn&& fn) {
  BenchSpan s(span);
  const uint64_t t0 = NowNs();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    *seconds = SecondsSince(t0);
  } else {
    auto result = fn();
    *seconds = SecondsSince(t0);
    return result;
  }
}

// ---------------------------------------------------------------------------
// Host speed.

/// On a shared host the whole machine's speed drifts by tens of percent over
/// minutes, with little steal: over ten consecutive build-fs runs every
/// timing fell by the same factor of about 1.45. No choice of samples inside
/// a run removes that, so the run also times a fixed reference kernel that
/// shares no code with the library, and every time it reports is scaled by
/// kReferenceKernelSeconds over the run's median kernel time: it reads as
/// the time on a host where the kernel takes kReferenceKernelSeconds.
/// perfbench/README.md gives the spreads with and without the scaling.
constexpr double kReferenceKernelSeconds = 0.03;

/// The reference kernel: 4 sorts of the same 2^17 random keys (1 MiB, held
/// in each core's cache), run kBuildThreads times side by side like the
/// 1-thread builds, so that it sees every core busy. Its inputs are fixed,
/// independent of --seed. A chase through a 16 MiB cycle was tried first:
/// it moved with the other guests' pressure on the shared last-level cache
/// far more than the benchmark did (3.4x against 1.8x from a fast phase to
/// a slow one, where the sort moved 1.7x).
class SpeedReference {
 public:
  SpeedReference() : keys_(size_t{1} << 17) {
    Rng rng(0x5EEDBA5E);
    for (uint32_t& key : keys_) key = static_cast<uint32_t>(rng.Next64());
    Time();  // warm-up
  }

  /// Times the kernel once more.
  void Measure() { seconds_.push_back(Time()); }

  double MedianSeconds() const { return Median(seconds_); }
  size_t samples() const { return seconds_.size(); }
  /// The factor every time of the run is multiplied by.
  double Scale() const {
    return seconds_.empty() ? 1.0 : kReferenceKernelSeconds / MedianSeconds();
  }

 private:
  /// The median of kBuildThreads side-by-side kernel CPU times, in seconds.
  double Time() const {
    std::vector<double> seconds(kBuildThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kBuildThreads; ++i) {
      threads.emplace_back([&, i] { seconds[i] = RunKernel(); });
    }
    for (std::thread& t : threads) t.join();
    return Median(seconds);
  }

  /// The calling thread's CPU time for one kernel run. The guest kernel
  /// leaves hypervisor steal out of CPU time (paravirtual steal accounting),
  /// so the kernel reads the host's speed, not its steal, which the quiet
  /// samples already handle; being 30-60 ms long, kernel runs are too short
  /// for /proc/stat's 10 ms steal ticks to sort them.
  double RunKernel() const {
    const double t0 = ThreadCpuSeconds();
    uint64_t sum = 0;
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<uint32_t> keys = keys_;
      std::sort(keys.begin(), keys.end());
      sum += keys[keys.size() / 2];
    }
    const double seconds = ThreadCpuSeconds() - t0;
    sink_.fetch_add(sum, std::memory_order_relaxed);
    return seconds;
  }

  static double ThreadCpuSeconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  std::vector<uint32_t> keys_;
  std::vector<double> seconds_;
  mutable std::atomic<uint64_t> sink_{0};  // keeps the kernel's result live
};

// ---------------------------------------------------------------------------
// Inputs.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string work_dir = ".";
  std::string trace_out;
  // Name of one output check whose input is deliberately altered, to show
  // that the check rejects a wrong answer.
  std::string corrupt;
};

/// A workload: its graph, what one round of it does, and its update batches.
struct WorkloadSpec {
  const char* name;
  bool it_graph;           // IT stand-in (RMAT) vs FS stand-in (Gnm)
  int builds_per_round;    // 4-thread pipeline iterations per round
  double slice_seconds;    // serving per round
  int batches_per_round;   // unloaded update batches; 0 = beside the readers
  size_t batch_size;       // edge toggles per update batch
  bool top_core_toggles;   // toggle pairs inside the initial k_max-core only
};

constexpr WorkloadSpec kWorkloads[] = {
    // On FS a toggle costs ~0.3 s of dynamic-coreness work when both ends
    // lie in the giant k_max-core and little otherwise, about half the time
    // each for uniform pairs, so the median batch flips between the two
    // costs. One toggle per batch, inside the k_max-core, keeps every batch
    // on the expensive path.
    {"build-fs", false, 2, 0.5, 2, 1, true},
    {"serve-it", true, 2, 1.0, 2, 10, false},
    {"live-it", true, 2, 1.5, 0, 10, false},
};

/// The FS stand-in (friendster: giant near-uniform component, few tree
/// nodes) or the IT stand-in (it-2004: skewed web crawl, deep hierarchy),
/// at the sizes of bench/bench_datasets.cc but drawn from `seed`.
Graph MakeGraph(const WorkloadSpec& spec, uint64_t seed, bool small) {
  if (spec.it_graph) {
    return RMatGraph500(small ? 13 : 17, small ? 90000 : 1400000, seed);
  }
  return ErdosRenyiGnm(small ? 25000 : 400000, small ? 112000 : 1800000, seed);
}

/// One request of the serving mix: argmax queries over the 9 metrics x k in
/// [0, k_max] and k-core queries for 1-4 random vertices.
struct Req {
  uint8_t metric = 0;
  uint8_t num_vertices = 0;
  uint32_t k = 0;
  VertexId vertices[4] = {};

  server::QueryRequest ToQuery() const {
    server::QueryRequest q;
    q.metric = kAllMetrics[metric];
    q.k = k;
    q.vertices.assign(vertices, vertices + num_vertices);
    return q;
  }
  bool argmax() const { return num_vertices == 0; }
};

class RequestStream {
 public:
  RequestStream(uint64_t seed, VertexId n, uint32_t k_max)
      : rng_(seed), n_(n), k_max_(k_max) {}

  Req Next() {
    Req r;
    constexpr uint64_t kNumMetrics = std::size(kAllMetrics);
    r.metric = static_cast<uint8_t>(rng_.Uniform(kNumMetrics));
    if (rng_.Bernoulli(kArgmaxShare)) {
      r.k = static_cast<uint32_t>(rng_.Uniform(uint64_t{k_max_} + 1));
    } else {
      r.num_vertices = static_cast<uint8_t>(1 + rng_.Uniform(4));
      for (int i = 0; i < r.num_vertices; ++i) {
        r.vertices[i] = static_cast<VertexId>(rng_.Uniform(n_));
      }
    }
    return r;
  }

 private:
  Rng rng_;
  VertexId n_;
  uint32_t k_max_;
};

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// One applied update batch and the host steal ticks while it ran.
struct Batch {
  BatchApplyReport report;
  uint64_t steal = 0;
};

/// Applies the workload's update batches, one per call, with kLiveThreads
/// OpenMP threads. Call only from the writer thread.
class Writer {
 public:
  Writer(LiveEngine* live, const WorkloadSpec& spec, uint64_t seed)
      : live_(live), batch_size_(spec.batch_size), rng_(seed * 7919 + 3) {
    if (spec.top_core_toggles) {
      const std::vector<uint32_t>& coreness = live->dynamic().CorenessValues();
      const uint32_t k_max = live->dynamic().KMax();
      for (VertexId v = 0; v < coreness.size(); ++v) {
        if (coreness[v] == k_max) pool_.push_back(v);
      }
    }
  }

  LiveEngine* engine() const { return live_; }
  const std::vector<Batch>& batches() const { return batches_; }
  const std::string& error() const { return error_; }

  /// Applies one batch; false (and error() says why) when it failed.
  bool ApplyOne() {
    ThreadCountGuard guard(kLiveThreads);
    const std::vector<EdgeUpdate> batch = MakeBatch();
    Batch b;
    const uint64_t steal0 = StealTicks();
    Status s;
    {
      BenchSpan span("engine.apply_batch");
      s = live_->ApplyBatch(batch, &b.report);
    }
    if (!s.ok()) {
      error_ = s.message();
      return false;
    }
    b.steal = StealTicks() - steal0;
    batches_.push_back(b);
    return true;
  }

 private:
  /// batch_size_ seeded uniform random edge toggles against the current
  /// graph, between vertices of pool_ (all vertices when it is empty).
  std::vector<EdgeUpdate> MakeBatch() {
    const DynamicCoreIndex& dyn = live_->dynamic();
    std::vector<EdgeUpdate> batch;
    const VertexId n = dyn.NumVertices();
    auto draw = [&] {
      return pool_.empty() ? static_cast<VertexId>(rng_.Uniform(n))
                           : pool_[rng_.Uniform(pool_.size())];
    };
    while (batch.size() < batch_size_) {
      EdgeUpdate u;
      u.u = draw();
      u.v = draw();
      if (u.u == u.v) continue;
      u.op = dyn.HasEdge(u.u, u.v) ? EdgeOp::kRemove : EdgeOp::kInsert;
      batch.push_back(u);
    }
    return batch;
  }

  LiveEngine* live_;
  size_t batch_size_;
  Rng rng_;
  std::vector<VertexId> pool_;
  std::vector<Batch> batches_;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Build step.

/// Per-call wall times of one pipeline iteration, in seconds.
struct BuildTimes {
  double total = 0, load = 0, decomposition = 0, rank = 0, construction = 0,
         freeze = 0, index = 0, preprocess = 0, primary_a = 0, primary_b = 0,
         snapshot = 0, first_answer = 0;
  uint64_t steal = 0;  // host steal ticks during the iteration
};

struct BuildIteration {
  BuildTimes times;
  std::vector<std::pair<TreeNodeId, uint64_t>> answers;  // per metric
  bool coreness_matches = false;
};

BuildIteration RunBuildIteration(const std::string& path, int threads,
                                 const std::vector<uint32_t>& bz_coreness) {
  BenchSpan root("bench.build_iteration");
  BuildIteration it;
  BuildTimes& t = it.times;
  const uint64_t steal0 = StealTicks();
  const uint64_t t0 = NowNs();
  EngineOptions options;
  options.threads = threads;
  std::unique_ptr<HcdEngine> engine;
  const Status s = TimedCall("graph.load", &t.load, [&] {
    return HcdEngine::Load(path, options, &engine);
  });
  HCD_CHECK(s.ok()) << "load " << path << ": " << s.message();
  const CoreDecomposition& cd =
      TimedCall("core.decomposition", &t.decomposition,
                [&]() -> const CoreDecomposition& { return engine->Coreness(); });
  TimedCall("hcd.rank", &t.rank, [&] { engine->Rank(); });
  TimedCall("hcd.construction", &t.construction, [&] { engine->Forest(); });
  TimedCall("hcd.freeze", &t.freeze, [&] { engine->Flat(); });
  TimedCall("search.index", &t.index, [&] { engine->Searcher(); });
  const QuerySnapshot snapshot = TimedCall(
      "engine.snapshot", &t.snapshot, [&] { return engine->Snapshot(); });
  SearchWorkspace ws;
  for (const Metric metric : kAllMetrics) {
    double seconds = 0;
    const SearchHit hit = TimedCall("search.answer", &seconds, [&] {
      return snapshot.Search(metric, &ws);
    });
    if (it.answers.empty()) t.first_answer = seconds;
    it.answers.emplace_back(hit.best_node, DoubleBits(hit.best_score));
  }
  t.total = SecondsSince(t0);
  t.steal = StealTicks() - steal0;
  const StageTelemetry& tel = engine->telemetry();
  t.preprocess = tel.StageSeconds("search.preprocess");
  t.primary_a = tel.StageSeconds("search.primary_a");
  t.primary_b = tel.StageSeconds("search.primary_b");
  it.coreness_matches = cd.coreness == bz_coreness;
  return it;
}

/// The build iterations of a run, their checks and, with --trace 1, the
/// 4-thread totals of traced and untraced rounds.
class BuildSteps {
 public:
  BuildSteps(const Options& opt, std::string graph_path,
             const std::vector<uint32_t>& bz_coreness)
      : opt_(opt), path_(std::move(graph_path)), bz_(bz_coreness) {}

  /// One 4-thread iteration.
  void MultiThread(bool traced) {
    BuildIteration it = RunBuildIteration(path_, kBuildThreads, bz_);
    if (opt_.trace) {
      (traced ? traced_ : untraced_).push_back(it.times.total);
    }
    Record(0, std::move(it));
  }

  /// kBuildThreads 1-thread iterations side by side.
  void OneThreadSet() {
    std::vector<BuildIteration> its(kBuildThreads);
    std::vector<std::vector<uint32_t>> expected(kBuildThreads, bz_);
    const bool first_set = times_[1].empty();
    if (opt_.corrupt == "build_coreness_bz" && first_set) expected[0][0] += 1;
    std::vector<std::thread> threads;
    for (int i = 0; i < kBuildThreads; ++i) {
      threads.emplace_back([&, i] {
        its[i] = RunBuildIteration(path_, 1, expected[i]);
      });
    }
    for (std::thread& t : threads) t.join();
    if (opt_.corrupt == "build_answers_1t_vs_4t" && first_set) {
      its[0].answers[0].second ^= 1;
    }
    for (BuildIteration& it : its) Record(1, std::move(it));
  }

  /// Checks and reports build_s, build_1t_s and the build-side layer
  /// metrics, and counts the iterations as attempted.
  void ReportTo(Report* report) const {
    report->Attempt(attempted_, failed_);
    report->Check("build_answers_1t_vs_4t", answers_match_,
                  "every iteration's 9 answers bit-identical to the first "
                  "4-thread iteration's");
    report->Check("build_coreness_bz", coreness_match_,
                  "every iteration's coreness equals BzCoreDecomposition");
    const std::vector<const BuildTimes*> quiet[2] = {
        Quiet(times_[0], StealOf), Quiet(times_[1], StealOf)};
    auto med = [&](int which, double BuildTimes::*field) {
      std::vector<double> v;
      for (const BuildTimes* t : quiet[which]) v.push_back(t->*field);
      return Median(v);
    };
    const size_t n4 = quiet[0].size(), n1 = quiet[1].size();
    report->Set("build_s", med(0, &BuildTimes::total), "s", n4);
    report->Set("build_1t_s", med(1, &BuildTimes::total), "s", n1);
    report->Set("graph.load_ms", 1e3 * med(0, &BuildTimes::load), "ms", n4);
    report->Set("core.decomposition_ms",
                1e3 * med(0, &BuildTimes::decomposition), "ms", n4);
    report->Set("core.decomposition_1t_ms",
                1e3 * med(1, &BuildTimes::decomposition), "ms", n1);
    report->Set("hcd.rank_ms", 1e3 * med(0, &BuildTimes::rank), "ms", n4);
    report->Set("hcd.construction_ms",
                1e3 * med(0, &BuildTimes::construction), "ms", n4);
    report->Set("hcd.construction_1t_ms",
                1e3 * med(1, &BuildTimes::construction), "ms", n1);
    report->Set("hcd.freeze_ms", 1e3 * med(0, &BuildTimes::freeze), "ms", n4);
    report->Set("hcd.freeze_1t_ms", 1e3 * med(1, &BuildTimes::freeze), "ms",
                n1);
    report->Set("search.index_ms", 1e3 * med(0, &BuildTimes::index), "ms", n4);
    report->Set("search.index_1t_ms", 1e3 * med(1, &BuildTimes::index), "ms",
                n1);
    report->Set("search.preprocess_ms",
                1e3 * med(0, &BuildTimes::preprocess), "ms", n4);
    report->Set("search.preprocess_1t_ms",
                1e3 * med(1, &BuildTimes::preprocess), "ms", n1);
    report->Set("search.primary_a_ms", 1e3 * med(0, &BuildTimes::primary_a),
                "ms", n4);
    report->Set("search.primary_a_1t_ms",
                1e3 * med(1, &BuildTimes::primary_a), "ms", n1);
    report->Set("search.primary_b_ms", 1e3 * med(0, &BuildTimes::primary_b),
                "ms", n4);
    report->Set("search.primary_b_1t_ms",
                1e3 * med(1, &BuildTimes::primary_b), "ms", n1);
    report->Set("search.first_answer_us",
                1e6 * med(0, &BuildTimes::first_answer), "us", n4);
    report->Set("engine.snapshot_ms", 1e3 * med(0, &BuildTimes::snapshot),
                "ms", n4);
    if (opt_.trace) {
      report->Set("trace.build_overhead_ratio",
                  Median(traced_) / Median(untraced_), "ratio",
                  traced_.size() + untraced_.size());
    }
  }

 private:
  static double StealOf(const BuildTimes& t) {
    return StealShare(t.steal, t.total);
  }

  void Record(int which, BuildIteration it) {
    if (reference_answers_.empty()) reference_answers_ = it.answers;
    answers_match_ = answers_match_ && it.answers == reference_answers_;
    coreness_match_ = coreness_match_ && it.coreness_matches;
    times_[which].push_back(it.times);
    ++attempted_;
    if (!it.coreness_matches) ++failed_;
  }

  const Options& opt_;
  const std::string path_;
  const std::vector<uint32_t>& bz_;
  std::vector<BuildTimes> times_[2];  // [0]: 4 threads, [1]: 1 thread
  std::vector<double> traced_, untraced_;
  std::vector<std::pair<TreeNodeId, uint64_t>> reference_answers_;
  bool answers_match_ = true, coreness_match_ = true;
  uint64_t attempted_ = 0, failed_ = 0;
};

// ---------------------------------------------------------------------------
// Serve step.

/// A digest of the fields of an answer the checks compare (vertices are
/// never echoed). Clients fold their answers' digests into one chain, so the
/// benchmark's memory does not grow with the throughput it measures.
uint64_t AnswerDigest(uint64_t epoch, uint64_t core_size, double score,
                      uint32_t level, bool found) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const uint64_t x : {epoch, core_size, DoubleBits(score),
                           uint64_t{level} << 1 | (found ? 1 : 0)}) {
    h = (h ^ x) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  return h;
}

uint64_t DigestOf(const server::QueryResponse& r) {
  return AnswerDigest(r.epoch, r.core_size, r.score, r.level, r.found);
}

uint64_t DigestOf(const server::QueryOutcome& o) {
  return AnswerDigest(o.epoch, o.core_size, o.score, o.level, o.found);
}

/// Folds one answer's digest into an order-dependent chain of answers.
uint64_t Chain(uint64_t chain, uint64_t digest) {
  chain = (chain ^ digest) * 0x94D049BB133111EBULL;
  return chain ^ (chain >> 29);
}

/// The answers of one request stream, folded in request order.
struct AnswerChain {
  uint64_t chain = 0;
  uint64_t count = 0;

  void Add(uint64_t digest) {
    chain = Chain(chain, digest);
    ++count;
  }
};

/// The request stream of client `c`; replaying it regenerates the requests
/// whose answers the client kept.
RequestStream ClientStream(uint64_t seed, int c, VertexId n, uint32_t k_max) {
  return RequestStream(seed * 1000003 + 17 + static_cast<uint64_t>(c), n, k_max);
}

/// Opens and closes the serve slices for the client threads. Slice `s` is
/// open while current() == s; -1 means closed.
class SliceGate {
 public:
  void Open(int slice) {
    std::lock_guard<std::mutex> lock(mu_);
    current_.store(slice, std::memory_order_release);
    cv_.notify_all();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    current_.store(-1, std::memory_order_release);
  }
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    cv_.notify_all();
  }
  int current() const { return current_.load(std::memory_order_acquire); }

  /// Blocks until a slice opens (returns it) or the gate stops (returns -1).
  int WaitOpen() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stopped_ || current() >= 0; });
    return stopped_ ? -1 : current();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int> current_{-1};
  bool stopped_ = false;
};

struct ClientResult {
  AnswerChain answers;  // when asked to keep them; 0 for a refused request
  std::vector<std::vector<double>> latency_us;  // by serve slice
  std::vector<double> traced_latency_us;    // --trace 1: traced slices
  std::vector<double> untraced_latency_us;  // --trace 1: untraced slices
  uint64_t failed = 0;     // answered with another status than kOk
  uint64_t max_epoch = 0;  // newest epoch any answer named
  std::string error;
};

/// Drives one connection in a closed loop while a slice is open: the next
/// request goes out when the previous answer arrives.
void ClientLoop(uint16_t port, RequestStream stream, bool keep_answers,
                SliceGate* gate, bool trace_mode, ClientResult* out) {
  server::QueryClient client;
  const Status s = client.Connect("127.0.0.1", port, 10.0);
  if (!s.ok()) {
    out->error = "connect: " + s.message();
    return;
  }
  server::QueryResponse response;
  for (int slice = gate->WaitOpen(); slice >= 0; slice = gate->WaitOpen()) {
    if (out->latency_us.size() <= static_cast<size_t>(slice)) {
      out->latency_us.resize(slice + 1);
    }
    std::vector<double>& latency = out->latency_us[slice];
    while (gate->current() == slice) {
      const Req req = stream.Next();
      const server::QueryRequest query = req.ToQuery();
      const bool traced = g_spans.enabled();
      const uint64_t send_ns = NowNs();
      Status qs;
      {
        BenchSpan span("server.query");
        qs = client.Query(query, &response);
      }
      const uint64_t done_ns = NowNs();
      if (!qs.ok()) {
        out->error = "query: " + qs.message();
        ++out->failed;
        return;
      }
      const double latency_us = static_cast<double>(done_ns - send_ns) * 1e-3;
      latency.push_back(latency_us);
      if (trace_mode) {
        (traced ? out->traced_latency_us : out->untraced_latency_us)
            .push_back(latency_us);
      }
      const bool ok = response.status == server::ResponseStatus::kOk;
      if (keep_answers) out->answers.Add(ok ? DigestOf(response) : 0);
      if (!ok) {
        ++out->failed;
        continue;
      }
      out->max_epoch = std::max(out->max_epoch, response.epoch);
    }
  }
}

/// An in-process QueryServer over `manager` and kConnections client threads
/// that stay connected for the whole run and send requests only while a
/// slice is open.
class Serving {
 public:
  Serving(const SnapshotManager& manager, uint64_t seed, VertexId n,
          uint32_t k_max, bool keep_answers, bool trace_mode)
      : srv_(&manager, MakeServerOptions()), clients_(kConnections) {
    const Status started = srv_.Start();
    if (!started.ok()) {
      error_ = "server start: " + started.message();
      return;
    }
    for (int c = 0; c < kConnections; ++c) {
      threads_.emplace_back(ClientLoop, srv_.port(),
                            ClientStream(seed, c, n, k_max), keep_answers,
                            &gate_, trace_mode, &clients_[c]);
    }
  }
  ~Serving() { Finish(); }

  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  /// Opens the next slice; `during` runs on the calling thread while it is
  /// open. Records the slice's length and host steal.
  template <typename Fn>
  void Slice(Fn&& during) {
    const uint64_t steal0 = StealTicks();
    const uint64_t t0 = NowNs();
    gate_.Open(static_cast<int>(slice_seconds_.size()));
    during();
    gate_.Close();
    slice_seconds_.push_back(SecondsSince(t0));
    slice_steal_.push_back(StealTicks() - steal0);
  }

  /// Stops the clients, reads the server's stats and stops the server.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    gate_.Stop();
    for (std::thread& t : threads_) t.join();
    if (!error_.empty()) return;
    server::QueryClient stats_client;
    Status s = stats_client.Connect("127.0.0.1", srv_.port(), 10.0);
    if (s.ok()) s = stats_client.FetchStats(&stats_json_);
    if (!s.ok()) error_ = "stats: " + s.message();
    stats_client.Close();
    stats_ = srv_.stats();
    srv_.Stop();
  }

  const std::string& error() const { return error_; }
  std::vector<ClientResult>& clients() { return clients_; }
  const std::vector<double>& slice_seconds() const { return slice_seconds_; }
  const std::vector<uint64_t>& slice_steal() const { return slice_steal_; }
  const server::ServerStats& stats() const { return stats_; }
  const std::string& stats_json() const { return stats_json_; }

 private:
  static server::ServerOptions MakeServerOptions() {
    server::ServerOptions options;
    options.workers = kServerWorkers;
    return options;
  }

  server::QueryServer srv_;
  SliceGate gate_;
  std::vector<ClientResult> clients_;
  std::vector<std::thread> threads_;
  std::vector<double> slice_seconds_;
  std::vector<uint64_t> slice_steal_;
  server::ServerStats stats_;
  std::string stats_json_;
  std::string error_;
  bool finished_ = false;
};

/// Replays answered request streams against ExecuteQuery on a snapshot and
/// times the evaluations it makes (argmax answers are memoized per
/// (metric, k), so each key is timed once per stream).
struct ReplayResult {
  std::vector<double> argmax_us;
  std::vector<double> vertex_set_us;
  uint64_t checked = 0;
  uint64_t streams_differing = 0;
};

/// Regenerates the first `answers.count` requests of `stream` and checks
/// that ExecuteQuery on `snapshot` answers them exactly as the chain says.
void Replay(const QuerySnapshot& snapshot, RequestStream stream,
            const AnswerChain& answers, ReplayResult* out) {
  SearchWorkspace ws;
  std::unordered_map<uint64_t, uint64_t> argmax_memo;
  AnswerChain expected;
  for (uint64_t i = 0; i < answers.count; ++i) {
    const Req req = stream.Next();
    const uint64_t key = (uint64_t{req.metric} << 32) | req.k;
    auto memo = req.argmax() ? argmax_memo.find(key) : argmax_memo.end();
    if (memo != argmax_memo.end()) {
      expected.Add(memo->second);
      continue;
    }
    BenchSpan span("search.execute_query");
    const uint64_t t0 = NowNs();
    const uint64_t digest =
        DigestOf(server::ExecuteQuery(snapshot, req.ToQuery(), &ws));
    const double us = static_cast<double>(NowNs() - t0) * 1e-3;
    if (req.argmax()) {
      out->argmax_us.push_back(us);
      argmax_memo.emplace(key, digest);
    } else {
      out->vertex_set_us.push_back(us);
    }
    expected.Add(digest);
  }
  out->checked += answers.count;
  if (expected.chain != answers.chain) ++out->streams_differing;
}

/// Sends `count` requests of `stream` to a server over `manager` and
/// returns their answers (used for live-it's final-epoch sample).
AnswerChain SampleServed(const SnapshotManager& manager, RequestStream stream,
                         size_t count, std::string* error) {
  server::ServerOptions options;
  options.workers = 1;
  server::QueryServer srv(&manager, options);
  AnswerChain answers;
  Status s = srv.Start();
  server::QueryClient client;
  if (s.ok()) s = client.Connect("127.0.0.1", srv.port(), 10.0);
  server::QueryResponse response;
  for (size_t i = 0; s.ok() && i < count; ++i) {
    s = client.Query(stream.Next().ToQuery(), &response);
    if (s.ok()) answers.Add(DigestOf(response));
  }
  if (!s.ok()) *error = s.message();
  client.Close();
  srv.Stop();
  return answers;
}

// ---------------------------------------------------------------------------
// Output helpers.

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Writes the spans as a Chrome trace, at most kMaxTraceSpansPerName of each
/// name (serving records one span per request; the self-time shares use
/// every span, the file only needs enough to inspect).
void WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  uint64_t origin = UINT64_MAX;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::map<std::string, size_t> written;
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (++written[s.name] > kMaxTraceSpansPerName) continue;
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f}}",
                  first ? "" : ",\n", s.name, s.tid,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.dur_ns) * 1e-3,
                  static_cast<double>(s.self_ns) * 1e-3);
    out << buf;
    first = false;
  }
  out << "]}\n";
  HCD_CHECK(out.good()) << "cannot write trace " << path;
}

std::string Quoted(const std::string& s) { return "\"" + s + "\""; }

std::string GraphJson(const Graph& g, uint32_t k_max, TreeNodeId nodes) {
  std::ostringstream out;
  out << "{\"n\":" << g.NumVertices() << ",\"m\":" << g.NumEdges()
      << ",\"k_max\":" << k_max << ",\"tree_nodes\":" << nodes << '}';
  return out.str();
}

/// Reports qps and the client latency quantiles over the serve slices after
/// the first (it warms the result cache) that Quiet() keeps; over every slice
/// when there are too few for that.
void ReportLatency(Serving& serving, Report* report) {
  const std::vector<uint64_t>& steal = serving.slice_steal();
  const std::vector<double>& seconds = serving.slice_seconds();
  std::vector<size_t> slices;
  for (size_t b = steal.size() >= 3 ? 1 : 0; b < steal.size(); ++b) {
    slices.push_back(b);
  }
  std::vector<double> quiet_us;
  double quiet_seconds = 0;
  const std::vector<const size_t*> quiet = Quiet(slices, [&](size_t b) {
    return StealShare(steal[b], seconds[b]);
  });
  for (const size_t* b : quiet) {
    quiet_seconds += seconds[*b];
    for (const ClientResult& c : serving.clients()) {
      if (*b < c.latency_us.size()) {
        quiet_us.insert(quiet_us.end(), c.latency_us[*b].begin(),
                        c.latency_us[*b].end());
      }
    }
  }
  std::sort(quiet_us.begin(), quiet_us.end());
  report->Set("qps",
              quiet_seconds > 0
                  ? static_cast<double>(quiet_us.size()) / quiet_seconds
                  : 0.0,
              "1/s", quiet_us.size());
  report->Set("latency_p50_us", SortedQuantile(quiet_us, 0.5), "us",
              quiet_us.size());
  report->Set("latency_p99_us", SortedQuantile(quiet_us, 0.99), "us",
              quiet_us.size());
  uint64_t total_steal = 0;
  double total_seconds = 0;
  for (size_t b = 0; b < steal.size(); ++b) {
    total_steal += steal[b];
    total_seconds += seconds[b];
  }
  report->Provenance("serve_steal_share",
                     std::to_string(StealShare(total_steal, total_seconds)));
  report->Provenance("serve_quiet_slices", std::to_string(quiet.size()));
}

/// Reports update_s and the update-side layer metrics of `batches`.
void ReportBatches(const std::vector<Batch>& batches, Report* report) {
  std::vector<double> total, apply, refreeze, publish, dirty;
  auto steal_of = [](const Batch& b) {
    return StealShare(b.steal, b.report.total_seconds);
  };
  for (const Batch* quiet : Quiet(batches, steal_of)) {
    const BatchApplyReport& b = quiet->report;
    total.push_back(b.total_seconds);
    apply.push_back(b.apply_seconds);
    refreeze.push_back(b.refreeze_seconds);
    publish.push_back(b.total_seconds - b.apply_seconds - b.refreeze_seconds);
    dirty.push_back(b.dirty_fraction);
  }
  size_t full = 0, published = 0;
  for (const Batch& b : batches) {
    full += b.report.full_rebuild ? 1 : 0;
    published += b.report.published ? 1 : 0;
  }
  const size_t nb = total.size();
  report->Set("update_s", Median(total), "s", nb);
  report->Set("core.dynamic_apply_ms", 1e3 * Median(apply), "ms", nb);
  report->Set("hcd.refreeze_ms", 1e3 * Median(refreeze), "ms", nb);
  report->Set("engine.publish_ms", 1e3 * Median(publish), "ms", nb);
  report->Set("hcd.dirty_fraction", Median(dirty), "ratio", nb);
  report->Set("hcd.full_rebuild_ratio",
              published == 0 ? 0.0
                             : static_cast<double>(full) /
                                   static_cast<double>(published),
              "ratio", published);
}

/// Reports each layer's share of the self time of every recorded span and
/// writes the spans to `trace_out`.
void ReportTrace(const std::string& trace_out, Report* report) {
  g_spans.SetEnabled(false);
  const std::vector<SpanRecord> spans = g_spans.Collect();
  std::map<std::string, double> self_ns;
  double total_self = 0;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    self_ns[name.substr(0, name.find('.'))] += static_cast<double>(s.self_ns);
    total_self += static_cast<double>(s.self_ns);
  }
  for (const char* layer :
       {"bench", "graph", "core", "hcd", "search", "engine", "server"}) {
    report->Set(std::string("trace.") + layer + ".self_share",
                total_self > 0 ? self_ns[layer] / total_self : 0.0, "ratio",
                spans.size());
  }
  report->Set("trace.spans", static_cast<double>(spans.size()), "count", 1);
  if (!trace_out.empty()) WriteChromeTrace(spans, trace_out);
}

// ---------------------------------------------------------------------------
// The run.

int Run(const Options& opt) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  Report report;
  report.Provenance("workload", Quoted(spec->name));
  report.Provenance("seed", std::to_string(opt.seed));
  report.Provenance("seconds", std::to_string(opt.seconds));
  report.Provenance("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Provenance("build_type", Quoted(HCD_BENCH_BUILD_TYPE));
  report.Provenance("small", opt.small ? "true" : "false");
  report.Provenance("threads",
                    "{\"build\":[" + std::to_string(kBuildThreads) +
                        ",1],\"one_thread_side_by_side\":" +
                        std::to_string(kBuildThreads) +
                        ",\"live_writer\":" + std::to_string(kLiveThreads) +
                        ",\"server_workers\":" + std::to_string(kServerWorkers) +
                        ",\"connections\":" + std::to_string(kConnections) + "}");
  g_spans.SetEnabled(opt.trace);
  const std::string graph_path = opt.work_dir + "/" + spec->name + ".bin";
  SpeedReference speed;

  // --- Set-up: generate the input, write the graph file, build the serving
  // state. Repeated; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<LiveEngine> live;
  LiveEngineOptions live_options;
  live_options.engine.threads = kBuildThreads;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    live.reset();
    speed.Measure();
    const uint64_t t0 = NowNs();
    Graph graph = MakeGraph(*spec, opt.seed, opt.small);
    const Status saved = SaveBinary(graph, graph_path);
    HCD_CHECK(saved.ok()) << saved.message();
    live = std::make_unique<LiveEngine>(std::move(graph), live_options);
    setup_s.push_back(SecondsSince(t0));
  }
  const QuerySnapshot initial = live->Snapshot();
  const std::vector<uint32_t> bz_coreness =
      BzCoreDecomposition(initial.graph()).coreness;
  const VertexId n = initial.graph().NumVertices();
  const uint32_t k_max = initial.coreness().k_max;
  report.Set("setup_s", Median(setup_s), "s", setup_s.size());
  report.Provenance("graph", GraphJson(initial.graph(), k_max,
                                       initial.flat().NumNodes()));
  {
    std::vector<uint32_t> expected = bz_coreness;
    if (opt.corrupt == "setup_coreness_bz") expected[0] += 1;
    report.Check("setup_coreness_bz", initial.coreness().coreness == expected,
                 "initial live coreness vs BzCoreDecomposition");
  }
  report.Set("core.k_max", k_max, "count", 1);
  report.Set("hcd.tree_nodes", initial.flat().NumNodes(), "count", 1);

  // Updates go to the served engine on live-it and to an engine that is
  // never served elsewhere.
  const bool concurrent = spec->batches_per_round == 0;
  std::unique_ptr<LiveEngine> unserved;
  if (!concurrent) {
    unserved = std::make_unique<LiveEngine>(Graph(initial.graph()),
                                            live_options);
  }
  Writer writer(concurrent ? live.get() : unserved.get(), *spec, opt.seed);

  // --- Rounds of build, serve and update steps until --seconds is used up;
  // a round is not started when the previous one says it would not fit.
  BuildSteps builds(opt, graph_path, bz_coreness);
  Serving serving(live->manager(), opt.seed, n, k_max,
                  /*keep_answers=*/!concurrent, opt.trace);
  const uint64_t start_ns = NowNs();
  const uint64_t end_ns = start_ns + static_cast<uint64_t>(opt.seconds * 1e9);
  bool writer_ok = true;
  uint64_t last_round_ns = 0;
  int rounds = 0;
  for (; serving.error().empty() && writer_ok &&
         (rounds < kMinRounds || NowNs() + last_round_ns <= end_ns);
       ++rounds) {
    const uint64_t round_start = NowNs();
    speed.Measure();
    // --trace 1 traces every other round; the rest measure the overhead.
    const bool traced = opt.trace && rounds % 2 == 0;
    g_spans.SetEnabled(traced);
    for (int b = 0; b < spec->builds_per_round; ++b) builds.MultiThread(traced);
    builds.OneThreadSet();
    speed.Measure();
    const uint64_t slice_ns =
        static_cast<uint64_t>(spec->slice_seconds * 1e9);
    serving.Slice([&] {
      const uint64_t slice_end = NowNs() + slice_ns;
      if (concurrent) {
        // The writer applies batches back to back beside the readers,
        // finishing the batch in flight when the slice ends.
        do {
          writer_ok = writer.ApplyOne();
        } while (writer_ok && NowNs() < slice_end);
      } else {
        std::this_thread::sleep_for(std::chrono::nanoseconds(slice_ns));
      }
    });
    speed.Measure();
    for (int b = 0; writer_ok && b < spec->batches_per_round; ++b) {
      writer_ok = writer.ApplyOne();
    }
    last_round_ns = NowNs() - round_start;
  }
  g_spans.SetEnabled(opt.trace);
  serving.Finish();
  report.Check("serve_ran", serving.error().empty(), serving.error());
  report.Check("updates_applied", writer.error().empty(), writer.error());
  report.Provenance("rounds", std::to_string(rounds));
  report.Provenance("measured_seconds", std::to_string(SecondsSince(start_ns)));
  builds.ReportTo(&report);
  report.Attempt(writer.batches().size(), 0);

  // --- Serving results and checks.
  std::vector<ClientResult>& clients = serving.clients();
  std::vector<double> traced_lat, untraced_lat;
  uint64_t max_epoch = 0;
  uint64_t requests = 0, failed_requests = 0;
  if (opt.corrupt == "serve_answers_match") clients[0].answers.chain ^= 1;
  for (const ClientResult& c : clients) {
    if (!c.error.empty()) report.Check("client", false, c.error);
    failed_requests += c.failed;
    max_epoch = std::max(max_epoch, c.max_epoch);
    for (const std::vector<double>& slice : c.latency_us) {
      requests += slice.size();
    }
    traced_lat.insert(traced_lat.end(), c.traced_latency_us.begin(),
                      c.traced_latency_us.end());
    untraced_lat.insert(untraced_lat.end(), c.untraced_latency_us.begin(),
                        c.untraced_latency_us.end());
  }
  ReplayResult replay;
  if (!concurrent) {
    // Read-only serving: every response must equal ExecuteQuery on the one
    // published snapshot.
    for (int c = 0; c < kConnections; ++c) {
      Replay(initial, ClientStream(opt.seed, c, n, k_max), clients[c].answers,
             &replay);
    }
    report.Check("serve_answers_match", replay.streams_differing == 0,
                 std::to_string(replay.streams_differing) +
                     " client streams answered differently from ExecuteQuery "
                     "over " + std::to_string(replay.checked) + " requests");
    if (replay.streams_differing != 0) ++failed_requests;
  }
  report.Attempt(requests, failed_requests);
  ReportLatency(serving, &report);
  const server::ServerStats& stats = serving.stats();
  report.Set("server.cache_hit_ratio",
             stats.requests == 0 ? 0.0
                                 : static_cast<double>(stats.cache_hits) /
                                       static_cast<double>(stats.requests),
             "ratio", stats.requests);
  report.Set("server.shed", stats.shed, "count", 1);
  report.Set("server.bad_requests", stats.bad_requests, "count", 1);
  report.SetServerStats(serving.stats_json());
  if (opt.trace) {
    report.Set("trace.serve_overhead_ratio",
               Median(traced_lat) / Median(untraced_lat), "ratio",
               traced_lat.size() + untraced_lat.size());
  }

  // --- Checks on the final generation of the updated engine.
  LiveEngine* updated = writer.engine();
  const QuerySnapshot final_snapshot = updated->Snapshot();
  {
    std::vector<uint32_t> bz =
        BzCoreDecomposition(updated->dynamic().ToGraph()).coreness;
    if (opt.corrupt == "final_coreness_bz") bz[0] += 1;
    report.Check("final_coreness_bz",
                 bz == final_snapshot.coreness().coreness &&
                     bz == updated->dynamic().CorenessValues(),
                 "coreness after the last batch vs BZ on the final graph");
  }
  if (concurrent) {
    // Answers during live-it come from many epochs; a sample served from the
    // final epoch must equal ExecuteQuery on it.
    std::string error;
    const RequestStream stream(opt.seed * 31 + 5, n, k_max);
    AnswerChain sample =
        SampleServed(live->manager(), stream, kFinalSample, &error);
    if (opt.corrupt == "final_epoch_answers_match") sample.chain ^= 1;
    Replay(final_snapshot, stream, sample, &replay);
    const bool matched = error.empty() && sample.count == kFinalSample &&
                         replay.streams_differing == 0;
    report.Check("final_epoch_answers_match", matched,
                 error.empty() ? std::to_string(kFinalSample) +
                                     " final-epoch answers vs ExecuteQuery"
                               : error);
    report.Attempt(kFinalSample, matched ? 0 : 1);
    if (opt.corrupt == "served_epochs_published") max_epoch += 1000;
    report.Check("served_epochs_published", max_epoch <= final_snapshot.epoch(),
                 "no response names an epoch newer than the last published");
  }
  report.Set("search.argmax_us", Median(replay.argmax_us), "us",
             replay.argmax_us.size());
  report.Set("search.vertex_set_us", Median(replay.vertex_set_us), "us",
             replay.vertex_set_us.size());

  ReportBatches(writer.batches(), &report);
  report.Provenance("final_graph",
                    GraphJson(final_snapshot.graph(),
                              final_snapshot.coreness().k_max,
                              final_snapshot.flat().NumNodes()));
  report.Provenance("final_epoch", std::to_string(final_snapshot.epoch()));

  if (opt.trace) ReportTrace(opt.trace_out, &report);

  report.Set("rss_mb", PeakRssMb(), "MiB", 1);
  report.SetTimeScale(speed.Scale());
  report.Provenance("reference_kernel",
                    "{\"reference_s\":" + std::to_string(kReferenceKernelSeconds) +
                        ",\"median_s\":" + std::to_string(speed.MedianSeconds()) +
                        ",\"samples\":" + std::to_string(speed.samples()) +
                        ",\"time_scale\":" + std::to_string(speed.Scale()) + "}");
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--corrupt") {
      opt.corrupt = value();
    } else if (arg == "--small") {
      opt.small = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  return Run(opt);
}

}  // namespace
}  // namespace hcd::perfbench

int main(int argc, char** argv) { return hcd::perfbench::Main(argc, argv); }
