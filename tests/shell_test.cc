// End-to-end test of maxson_shell's command parsing: malformed `set` knob
// values and a malformed `.trace` invocation must be rejected with a
// printed error (and leave the session untouched), while well-formed
// commands keep working in the same session. Drives the real binary
// (MAXSON_SHELL_BINARY, injected by CMake) through a pipe.

#include <cstdio>
#include <filesystem>
#include <string>

#include "catalog/catalog.h"
#include "gtest/gtest.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"

namespace maxson {
namespace {

class ShellTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_shell_test_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
    workload::JsonTableSpec spec;
    spec.database = "db";
    spec.table = "t";
    spec.num_properties = 3;
    spec.avg_json_bytes = 80;
    spec.rows = 50;
    spec.rows_per_file = 50;
    spec.rows_per_group = 25;
    spec.seed = 3;
    catalog::Catalog catalog;
    auto generated =
        workload::GenerateJsonTable(spec, root_ + "/warehouse", 1, &catalog);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ASSERT_TRUE(catalog.Save(root_ + "/warehouse/catalog.json").ok());
  }
  void TearDown() override {
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
  }

  /// Pipes `input` into the shell, returns combined stdout+stderr.
  std::string RunShell(const std::string& input) {
    const std::string command =
        "printf '%s' '" + input + "' | " + MAXSON_SHELL_BINARY +
        " --warehouse " + root_ + "/warehouse --database db --cache " + root_ +
        "/cache 2>&1";
    FILE* pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    if (pipe == nullptr) return "";
    std::string output;
    char buffer[512];
    while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
    const int rc = pclose(pipe);
    EXPECT_EQ(rc, 0) << output;
    return output;
  }

  std::string root_;
};

TEST_F(ShellTest, MalformedSetValuesAreRejectedWithErrors) {
  const std::string output = RunShell(
      "set threads abc\n"
      "set threads -2\n"
      "set trace maybe\n"
      "set rawfilter yes\n"
      "set budget 12MB\n"
      "set nonsense 1\n"
      ".quit\n");
  EXPECT_NE(output.find("option 'threads' expects N, got 'abc'"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("got '-2'"), std::string::npos) << output;
  EXPECT_NE(output.find("option 'trace' expects on|off, got 'maybe'"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("option 'rawfilter' expects on|off, got 'yes'"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("option 'budget' expects BYTES, got '12MB'"),
            std::string::npos)
      << output;
  // Unknown knobs name the known set and print the registry's usage line.
  EXPECT_NE(output.find("unknown option 'nonsense'"), std::string::npos)
      << output;
  EXPECT_NE(output.find("usage: "), std::string::npos) << output;
  EXPECT_NE(output.find("set threads N"), std::string::npos) << output;
  // Queries do not share scans, and cache files have one format: neither
  // is a knob.
  EXPECT_EQ(output.find("sharedscan"), std::string::npos) << output;
  EXPECT_EQ(output.find("corcencoding"), std::string::npos) << output;
}

TEST_F(ShellTest, OndemandIsNotAnOption) {
  // The on-demand tier is a library and a bench subject, not an engine
  // setting: `set ondemand` is an unknown option, and neither the usage
  // line nor .help nor .stats mentions it.
  const std::string output = RunShell(
      "set ondemand on\n"
      ".help\n"
      ".stats\n"
      ".quit\n");
  const std::string rejected = "unknown option 'ondemand'";
  const size_t at = output.find(rejected);
  ASSERT_NE(at, std::string::npos) << output;
  EXPECT_EQ(output.find("ondemand", at + rejected.size()), std::string::npos)
      << output;
}

TEST_F(ShellTest, MalformedSetLeavesSessionUsable) {
  // A rejected knob must not half-apply: threads stays at its start value
  // (1) after the bad `set threads`, and valid commands still work.
  const std::string output = RunShell(
      "set threads banana\n"
      ".threads\n"
      "set trace on\n"
      "set threads 2\n"
      ".quit\n");
  EXPECT_NE(output.find("option 'threads' expects N, got 'banana'"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("threads: 1"), std::string::npos) << output;
  EXPECT_NE(output.find("trace = on"), std::string::npos) << output;
  EXPECT_NE(output.find("threads: 2"), std::string::npos) << output;
}

TEST_F(ShellTest, FaultInjectKnobArmsAndDisarmsInjector) {
  const std::string output = RunShell(
      "set faultinject torn:5\n"
      ".stats\n"
      "set faultinject bogus\n"
      "set faultinject off\n"
      ".quit\n");
  EXPECT_NE(output.find("faultinject = torn:5"), std::string::npos) << output;
  EXPECT_NE(output.find("faultinject:    torn:5"), std::string::npos)
      << output;
  EXPECT_NE(output.find("unknown fault mode 'bogus'"), std::string::npos)
      << output;
  EXPECT_NE(output.find("faultinject = off"), std::string::npos) << output;
}

TEST_F(ShellTest, TraceCommandRejectsMissingFile) {
  const std::string output = RunShell(
      ".trace\n"
      ".quit\n");
  EXPECT_NE(output.find("error: .trace expects a file path"),
            std::string::npos)
      << output;
}

TEST_F(ShellTest, TraceCommandReportsUnwritablePath) {
  const std::string output = RunShell(
      ".trace /nonexistent-dir/trace.json\n"
      ".quit\n");
  EXPECT_NE(output.find("error: cannot open /nonexistent-dir/trace.json"),
            std::string::npos)
      << output;
}

TEST_F(ShellTest, ResultCacheKnobServesRepeatsFromCache) {
  const std::string output = RunShell(
      "set resultcache on\n"
      "SELECT id FROM t WHERE id < 3\n"
      "SELECT id FROM t WHERE id < 3\n"
      ".serve\n"
      "set resultcache maybe\n"
      "set resultcache off\n"
      ".quit\n");
  EXPECT_NE(output.find("resultcache = on"), std::string::npos) << output;
  EXPECT_NE(output.find("(result cache hit)"), std::string::npos) << output;
  EXPECT_NE(output.find("result cache:   on; 1 hits, 1 misses"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("option 'resultcache' expects on|off, got 'maybe'"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("resultcache = off"), std::string::npos) << output;
}

TEST_F(ShellTest, AdmissionKnobsApplyAndZeroCapacityRejects) {
  const std::string output = RunShell(
      "set maxqueue 0\n"
      "set maxinflight 0\n"
      "SELECT id FROM t\n"
      ".serve\n"
      "set maxinflight abc\n"
      ".quit\n");
  EXPECT_NE(output.find("maxqueue = 0"), std::string::npos) << output;
  EXPECT_NE(output.find("maxinflight = 0"), std::string::npos) << output;
  EXPECT_NE(output.find("resource exhausted"), std::string::npos) << output;
  EXPECT_NE(output.find("1 rejected"), std::string::npos) << output;
  EXPECT_NE(output.find("option 'maxinflight' expects N, got 'abc'"),
            std::string::npos)
      << output;
}

TEST_F(ShellTest, ValidKnobsAndQueriesStillWork) {
  const std::string output = RunShell(
      "set rawfilter on\n"
      "set budget 1000000\n"
      "SELECT id FROM t WHERE id < 3\n"
      ".stats\n"
      ".help\n"
      ".quit\n");
  EXPECT_NE(output.find("rawfilter = on"), std::string::npos) << output;
  EXPECT_NE(output.find("budget = 1000000"), std::string::npos) << output;
  EXPECT_NE(output.find("faultinject:"), std::string::npos) << output;
  // Each query scans alone: neither .stats nor .help mentions scan sharing.
  EXPECT_EQ(output.find("sharedscan"), std::string::npos) << output;
  EXPECT_EQ(output.find("shared-scan"), std::string::npos) << output;
  EXPECT_NE(output.find("id"), std::string::npos) << output;
  EXPECT_EQ(output.find("error:"), std::string::npos) << output;
}

}  // namespace
}  // namespace maxson
