/**
 * @file
 * Golden outputs: every spec file under specs/ runs in-process through
 * the ExperimentDriver, and its table, JSON, and CSV sinks must match
 * the checked-in expected files under tests/golden/ byte for byte.
 *
 *   Fast/ — every spec at a 20k-record override (the default ctest
 *           entry, test_golden);
 *   Full/ — the six historical specs and the five paper-artifact
 *           specs (storage, energy, fig1, fig6, fig8) at their own
 *           size, expected files under tests/golden/full/
 *           (test_golden_slow, ctest label "slow").
 *
 * Both run on a fixed thread count (the table header prints it) with
 * the trace cache off. normalize() is the only place output is
 * edited: it drops the wall-clock-dependent lines.
 *
 * `test_golden --update` rewrites the expected files from the current
 * build instead of comparing; tools/update_golden.sh wraps it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/driver.hh"
#include "driver/sink.hh"
#include "driver/spec.hh"

namespace fs = std::filesystem;

namespace prophet::driver
{
namespace
{

bool gUpdate = false;

constexpr unsigned kThreads = 4;
constexpr std::size_t kFastRecords = 20'000;

const fs::path kSourceDir = PROPHET_SOURCE_DIR;

struct GoldenCase
{
    std::string stem; ///< spec file name without ".json"
    bool full;        ///< the spec's own records, not kFastRecords
};

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.stem;
}

std::vector<GoldenCase>
fastCases()
{
    std::vector<GoldenCase> out;
    for (const auto &e : fs::directory_iterator(kSourceDir / "specs"))
        if (e.path().extension() == ".json")
            out.push_back({e.path().stem().string(), false});
    std::sort(out.begin(), out.end(),
              [](const GoldenCase &a, const GoldenCase &b) {
                  return a.stem < b.stem;
              });
    return out;
}

std::vector<GoldenCase>
fullCases()
{
    std::vector<GoldenCase> out;
    for (const char *stem :
         {"smoke", "smoke_params", "offchip", "ablation_repl", "fig10",
          "fig19", "storage", "energy", "fig1", "fig6", "fig8"})
        out.push_back({stem, true});
    return out;
}

const char *
extensionFor(SinkSpec::Kind kind)
{
    switch (kind) {
      case SinkSpec::Kind::Table:
        return ".table.txt";
      case SinkSpec::Kind::JsonFile:
        return ".json";
      case SinkSpec::Kind::CsvFile:
        return ".csv";
    }
    return ".unknown";
}

/**
 * Drop the lines whose values depend on the clock: the table's
 * "wall-clock:" line and the JSON document's top-level "timestamp"
 * and "wall_seconds" keys. Every other byte is compared.
 */
std::string
normalize(SinkSpec::Kind kind, const std::string &text)
{
    auto dropped = [kind](const std::string &line) {
        auto starts = [&line](const char *prefix) {
            return line.compare(0, std::strlen(prefix), prefix) == 0;
        };
        if (kind == SinkSpec::Kind::Table)
            return starts("wall-clock: ");
        if (kind == SinkSpec::Kind::JsonFile)
            return starts("  \"timestamp\": ")
                || starts("  \"wall_seconds\": ");
        return false;
    };
    std::string out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        end = end == std::string::npos ? text.size() : end + 1;
        std::string line = text.substr(pos, end - pos);
        if (!dropped(line))
            out += line;
        pos = end;
    }
    return out;
}

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class Golden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(Golden, SinksMatchExpectedFiles)
{
    const GoldenCase &c = GetParam();
    ExperimentSpec spec = ExperimentSpec::fromFile(
        (kSourceDir / "specs" / (c.stem + ".json")).string());

    DriverOptions opts;
    opts.threads = kThreads;
    if (!c.full)
        opts.records = kFastRecords;
    opts.traceCache = false;

    // Exactly the sinks the spec would have written (the default
    // table when it names none), one expected file per kind.
    ExperimentDriver drv(spec, opts);
    const ExperimentReport report = drv.run();
    ASSERT_TRUE(report.ok()) << c.stem;
    const std::vector<SinkOutput> &outputs = report.outputs;
    ASSERT_EQ(outputs.size(), std::max<std::size_t>(spec.sinks.size(), 1))
        << c.stem;
    for (std::size_t i = 0; i < outputs.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            ASSERT_NE(outputs[i].sink.kind, outputs[j].sink.kind)
                << c.stem << ": two sinks of one kind share a file";

    const fs::path dir = kSourceDir / "tests" / "golden"
        / (c.full ? "full" : "");
    for (const SinkOutput &output : outputs) {
        const fs::path expected_path =
            dir / (c.stem + extensionFor(output.sink.kind));
        const std::string actual =
            normalize(output.sink.kind, output.bytes);
        if (gUpdate) {
            fs::create_directories(dir);
            std::ofstream out(expected_path, std::ios::binary);
            out << actual;
            ASSERT_TRUE(out.flush()) << expected_path;
            continue;
        }
        ASSERT_TRUE(fs::exists(expected_path))
            << expected_path << " is missing; run "
            << "tools/update_golden.sh to create it";
        EXPECT_EQ(readFile(expected_path), actual)
            << expected_path << " differs from " << c.stem
            << "'s output; if the change is intended, regenerate "
            << "with tools/update_golden.sh";
    }
}

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    return info.param.stem;
}

INSTANTIATE_TEST_SUITE_P(Fast, Golden, ::testing::ValuesIn(fastCases()),
                         caseName);
INSTANTIATE_TEST_SUITE_P(Full, Golden, ::testing::ValuesIn(fullCases()),
                         caseName);

} // anonymous namespace
} // namespace prophet::driver

/**
 * Own main (instead of gtest_main) for the one extra argument:
 * `--update` regenerates the expected files.
 */
int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update") != 0) {
            std::fprintf(stderr, "test_golden: unknown argument %s\n",
                         argv[i]);
            return 2;
        }
        prophet::driver::gUpdate = true;
    }
    return RUN_ALL_TESTS();
}
