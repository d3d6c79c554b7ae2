// The sweep code the bench binaries share (bench/sweep.hpp): its JSON
// writers must reproduce, byte for byte, the fprintf layouts the committed
// goldens and scripts/metrics_diff.py read; its flag parser must reject
// what a binary does not take; its cell runner must return results in
// declaration order for every --jobs.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sweep.hpp"

namespace {

using namespace sanfault;

/// What fprintf(format, ...) writes, read back from a temporary file.
std::string fprinted(const char* format, ...) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  std::va_list args;
  va_start(args, format);
  std::vfprintf(f, format, args);
  va_end(args);
  std::string out(static_cast<std::size_t>(std::ftell(f)), '\0');
  std::rewind(f);
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

struct Row {
  std::size_t hosts = 0;
  std::uint64_t count = 0;
  int signed_value = 0;
  double value = 0;
  const char* name = "";
  bool ok = false;
  std::string metrics_json;
};

bench::Fields fields_of(const Row& r) {
  return {{"hosts", r.hosts},         {"count", r.count},
          {"signed", r.signed_value}, {"p0", r.value, 0},
          {"p1", r.value, 1},         {"p2", r.value, 2},
          {"p3", r.value, 3},         {"p4", r.value, 4},
          {"p5", r.value, 5},         {"p6", r.value, 6},
          {"name", r.name},           {"ok", r.ok}};
}

TEST(SweepJson, RowsMatchTheFprintfTheyReplace) {
  const std::vector<Row> rows = {
      {std::numeric_limits<std::size_t>::max(),
       std::numeric_limits<std::uint64_t>::max(), -1, 2.5, "link-kill", true,
       ""},
      {0, 0, std::numeric_limits<int>::min(), -1234.5678949, "steady", false,
       ""},
      {64, 1500, 7, 1e20 / 3, "pod-aware", true, ""},
  };
  std::string expected = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    expected += fprinted(
        "  {\"hosts\": %zu, \"count\": %llu, \"signed\": %d, \"p0\": %.0f, "
        "\"p1\": %.1f, \"p2\": %.2f, \"p3\": %.3f, \"p4\": %.4f, "
        "\"p5\": %.5f, \"p6\": %.6f, \"name\": \"%s\", \"ok\": %s}%s\n",
        r.hosts, static_cast<unsigned long long>(r.count), r.signed_value,
        r.value, r.value, r.value, r.value, r.value, r.value, r.value, r.name,
        r.ok ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  expected += "]\n";
  EXPECT_EQ(bench::json_rows(rows, fields_of), expected);
  EXPECT_EQ(bench::json_rows(std::vector<Row>{}, fields_of), "[\n]\n");
}

TEST(SweepJson, MetricsArrayKeepsTheLayoutMetricsDiffReads) {
  const std::vector<Row> rows = {{.hosts = 16, .metrics_json = "{\"a\": 1}"},
                                 {.hosts = 64, .metrics_json = "{}"}};
  const auto cell = [](const Row& r) {
    return bench::Fields{{"scenario", "repair-" + std::to_string(r.hosts)},
                         {"hosts", r.hosts}};
  };
  EXPECT_EQ(bench::metrics_array(rows, cell),
            "[\n"
            "{\"cell\": {\"scenario\": \"repair-16\", \"hosts\": 16},\n"
            "\"metrics\": {\"a\": 1}},\n"
            "{\"cell\": {\"scenario\": \"repair-64\", \"hosts\": 64},\n"
            "\"metrics\": {}}\n"
            "]\n");
}

TEST(SweepJson, WriteFileWritesOrSaysWhyNot) {
  const std::string path = testing::TempDir() + "bench_sweep_test.json";
  testing::internal::CaptureStdout();
  EXPECT_TRUE(bench::write_file(path.c_str(), "[\n]\n"));
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "wrote " + path + "\n");
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "[\n]\n");
  std::remove(path.c_str());

  testing::internal::CaptureStderr();
  EXPECT_FALSE(bench::write_file("/nonexistent-dir/x.json", "{}"));
  EXPECT_NE(testing::internal::GetCapturedStderr().find("cannot open"),
            std::string::npos);
}

// --- flags -----------------------------------------------------------------

/// A binary that takes --quick, --json <file>, --jobs <N>, --soak <seed> and
/// --cases <N> (at least 1), like bench_chaos.
struct Cli {
  bool quick = false;
  const char* json = nullptr;
  std::uint64_t jobs = 1;
  std::optional<std::uint64_t> seed;
  std::uint64_t cases = 30;
  std::vector<std::string> args;  // owns what `json` points into
  std::string err;

  bool parse(std::vector<std::string> given) {
    args = std::move(given);
    args.insert(args.begin(), "bench_x");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    testing::internal::CaptureStderr();
    const bool ok = bench::parse_flags(
        static_cast<int>(argv.size()), argv.data(),
        {{"--quick", quick},
         {"--json", "<file>", json},
         {"--jobs", "<N>", jobs},
         {"--soak", "<seed>", seed},
         {"--cases", "<N>", cases, 1}});
    err = testing::internal::GetCapturedStderr();
    return ok;
  }
};

constexpr const char* kUsage =
    "usage: bench_x [--quick] [--json <file>] [--jobs <N>] [--soak <seed>] "
    "[--cases <N>]\n";

TEST(SweepFlags, SetsWhatIsGivenAndLeavesTheRest) {
  Cli cli;
  ASSERT_TRUE(cli.parse({"--jobs", "007", "--quick", "--json", "out.json"}));
  EXPECT_TRUE(cli.quick);
  EXPECT_STREQ(cli.json, "out.json");
  EXPECT_EQ(cli.jobs, 7u);
  EXPECT_FALSE(cli.seed.has_value());
  EXPECT_EQ(cli.cases, 30u);
  EXPECT_EQ(cli.err, "");

  Cli none;
  ASSERT_TRUE(none.parse({}));
  EXPECT_FALSE(none.quick);
  EXPECT_EQ(none.json, nullptr);
  EXPECT_EQ(none.jobs, 1u);

  Cli edges;
  ASSERT_TRUE(edges.parse(
      {"--jobs", "0", "--soak", "0", "--cases", "18446744073709551615"}));
  EXPECT_EQ(edges.jobs, 0u);  // run_cells runs 0 serially, like 1
  EXPECT_EQ(edges.seed, std::optional<std::uint64_t>{0});
  EXPECT_EQ(edges.cases, std::numeric_limits<std::uint64_t>::max());
}

TEST(SweepFlags, RejectsWithTheUsageLine) {
  const std::vector<std::vector<std::string>> bad = {
      {"--no-such-flag"},
      {"--quick", "extra"},
      {"-quick"},
      {"--json"},
      {"--jobs"},
      {"--jobs", "12x"},
      {"--jobs", "-1"},
      {"--jobs", "+1"},
      {"--jobs", " 1"},
      {"--jobs", ""},
      {"--jobs", "18446744073709551616"},
      {"--soak", "abc"},
      {"--cases", "0"},
  };
  for (const auto& args : bad) {
    Cli cli;
    EXPECT_FALSE(cli.parse(args)) << args[0];
    EXPECT_TRUE(cli.err.ends_with(kUsage)) << cli.err;
  }
}

TEST(SweepFlags, UsageListsExactlyTheDeclaredFlags) {
  bool full = false;
  std::uint64_t jobs = 1;
  EXPECT_EQ(bench::usage_line("fig", {}), "usage: fig");
  EXPECT_EQ(
      bench::usage_line("fig", {{"--full", full}, {"--jobs", "<N>", jobs}}),
      "usage: fig [--full] [--jobs <N>]");
}

// --- cells -----------------------------------------------------------------

TEST(SweepCells, ResultsInSpecOrderForEveryJobs) {
  std::vector<int> specs(100);
  for (int i = 0; i < 100; ++i) specs[static_cast<std::size_t>(i)] = i;
  const auto square = [](int x) { return std::to_string(x * x); };
  const std::vector<std::string> serial = bench::run_cells(1, specs, square);
  for (const std::uint64_t jobs : {0u, 2u, 4u}) {
    EXPECT_EQ(bench::run_cells(jobs, specs, square), serial) << jobs;
  }
  EXPECT_EQ(serial[99], "9801");
  // More jobs than cells start one worker per cell.
  EXPECT_EQ(bench::run_cells(64, std::vector<int>{5, 6}, square),
            (std::vector<std::string>{"25", "36"}));
  EXPECT_TRUE(bench::run_cells(4, std::vector<int>{}, square).empty());
}

TEST(SweepCells, RethrowsTheFirstFailureInSpecOrder) {
  const std::vector<int> specs = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto fn = [](int x) {
    if (x == 3 || x == 6) throw std::runtime_error("cell " + std::to_string(x));
    return x;
  };
  for (const std::uint64_t jobs : {1u, 4u}) {
    try {
      bench::run_cells(jobs, specs, fn);
      ADD_FAILURE() << "no exception at --jobs " << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 3") << jobs;
    }
  }
}

}  // namespace
