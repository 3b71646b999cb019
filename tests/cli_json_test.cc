// Round-trips every hcd_cli subcommand's --json output through the strict
// JSON parser in tests/test_util.h. The parser rejects bare `inf`/`nan`
// tokens and trailing garbage, so this is the regression net for the
// ratio-guard bugs: a degenerate run (zero wall time, zero queries) must
// emit 0, never `"qps":inf`.
//
// The CLI binary's path arrives via the HCD_CLI_BIN environment variable
// (set by the ctest registration from $<TARGET_FILE:hcd_cli>); the whole
// suite is skipped when it is absent so the test target still builds and
// runs standalone.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace {

using hcd::testing::JsonValue;
using hcd::testing::ParseJson;

const char* CliBin() { return std::getenv("HCD_CLI_BIN"); }

std::string WorkDir() {
  const char* base = std::getenv("TMPDIR");
  std::string dir = (base != nullptr && base[0] != '\0') ? base : "/tmp";
  dir += "/hcd_cli_json_test";
  return dir;
}

/// Runs `hcd_cli <args>`, captures stdout, and requires exit status 0.
std::string RunCli(const std::string& args) {
  const std::string command = std::string(CliBin()) + " " + args;
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string out;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, n);
  }
  const int status = pclose(pipe);
  EXPECT_EQ(status, 0) << command << "\n--- output ---\n" << out;
  return out;
}

/// The JSON document a command emitted: its last non-empty stdout line.
/// (Commands in --json mode print exactly one object as the final line;
/// anything after it would be trailing garbage and fail here.)
std::string LastLine(const std::string& out) {
  size_t end = out.size();
  while (end > 0 && (out[end - 1] == '\n' || out[end - 1] == '\r')) --end;
  const size_t start = out.find_last_of('\n', end == 0 ? 0 : end - 1);
  return out.substr(start == std::string::npos ? 0 : start + 1,
                    end - (start == std::string::npos ? 0 : start + 1));
}

/// Runs the command and strictly parses its JSON line. The returned
/// object is the parsed document; the `command` field must match.
JsonValue RunAndParse(const std::string& args, const std::string& command) {
  const std::string out = RunCli(args + " --json");
  const std::string line = LastLine(out);
  JsonValue doc;
  EXPECT_TRUE(ParseJson(line, &doc))
      << "not strict JSON from `" << args << " --json`:\n" << line;
  const JsonValue* name = doc.Find("command");
  EXPECT_NE(name, nullptr) << line;
  if (name != nullptr) {
    EXPECT_EQ(name->str, command) << line;
  }
  return doc;
}

class CliJsonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (CliBin() == nullptr) return;
    const std::string dir = WorkDir();
    std::system(("mkdir -p " + dir).c_str());
    bin_path_ = dir + "/g.bin";
    txt_path_ = dir + "/g.txt";
    // One binary graph for every command, one text graph for convert.
    RunCli("gen gnm " + bin_path_ + " 400 1200 7");
    RunCli("gen gnm " + txt_path_ + " 120 300 3");
  }

  void SetUp() override {
    if (CliBin() == nullptr) {
      GTEST_SKIP() << "HCD_CLI_BIN not set; run under ctest";
    }
  }

  static std::string bin_path_;
  static std::string txt_path_;
};

std::string CliJsonTest::bin_path_;
std::string CliJsonTest::txt_path_;

TEST_F(CliJsonTest, GenAndConvert) {
  const JsonValue gen =
      RunAndParse("gen gnm " + WorkDir() + "/g2.bin 100 250 5", "gen");
  const JsonValue* graph = gen.Find("graph");
  ASSERT_NE(graph, nullptr);
  const JsonValue* n = graph->Find("n");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->number, 100.0);
  RunAndParse("convert " + txt_path_ + " " + WorkDir() + "/g3.bin", "convert");
}

TEST_F(CliJsonTest, EngineCommands) {
  RunAndParse("stats " + bin_path_, "stats");
  RunAndParse("build " + bin_path_ + " " + WorkDir() + "/g.forest", "build");
  RunAndParse("search " + bin_path_ + " conductance", "search");
  RunAndParse("export " + bin_path_ + " " + WorkDir() + "/g.dot", "export");
  RunAndParse("bestk " + bin_path_ + " average-degree", "bestk");
  RunAndParse("truss " + bin_path_, "truss");
  RunAndParse("influential " + bin_path_ + " 3 2", "influential");
}

TEST_F(CliJsonTest, QueryBenchRatiosStayFinite) {
  const JsonValue doc = RunAndParse(
      "query-bench " + bin_path_ + " --query-threads=2 --queries=60",
      "query-bench");
  const JsonValue* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* qps = result->Find("qps");
  ASSERT_NE(qps, nullptr);
  EXPECT_GE(qps->number, 0.0);  // the strict parser already rejected inf/nan
}

TEST_F(CliJsonTest, ElementQueryBenchReportsKindAndStaysFinite) {
  // The element regime of query-bench: --hierarchy=truss runs the
  // ElementSearchIndex workload and tags its result with the kind.
  const JsonValue doc = RunAndParse(
      "query-bench " + bin_path_ +
          " --hierarchy=truss --query-threads=2 --queries=60",
      "query-bench");
  const JsonValue* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* hierarchy = result->Find("hierarchy");
  ASSERT_NE(hierarchy, nullptr);
  EXPECT_EQ(hierarchy->str, "truss");
  const JsonValue* qps = result->Find("qps");
  ASSERT_NE(qps, nullptr);
  EXPECT_GE(qps->number, 0.0);
  const JsonValue* elements = result->Find("elements");
  ASSERT_NE(elements, nullptr);
  EXPECT_GT(elements->number, 0.0);
}

TEST_F(CliJsonTest, LiveBenchRatiosStayFinite) {
  const JsonValue doc = RunAndParse(
      "live-bench " + bin_path_ +
          " --query-threads=2 --batches=1 --batch-size=20 --seed=5",
      "live-bench");
  const JsonValue* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_NE(result->Find("qps_retained"), nullptr);
}

TEST_F(CliJsonTest, ServeBenchReportsServerStats) {
  const JsonValue doc = RunAndParse(
      "serve-bench " + bin_path_ + " --connections=2 --queries=80",
      "serve-bench");
  const JsonValue* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* queries = result->Find("queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->number, 80.0);
  const JsonValue* qps = result->Find("qps");
  ASSERT_NE(qps, nullptr);
  EXPECT_GT(qps->number, 0.0);
  // Self-hosted mode reports the in-process server's counters inline.
  const JsonValue* server = result->Find("server");
  ASSERT_NE(server, nullptr);
  const JsonValue* requests = server->Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->number, 80.0);
}

}  // namespace
