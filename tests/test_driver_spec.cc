/**
 * @file
 * Tests for the driver's JSON layer and the experiment-spec parser:
 * malformed documents, unknown keys, and bad workload names must
 * produce clear recoverable errors — never crashes or silently
 * defaulted experiments.
 */

#include <gtest/gtest.h>

#include "driver/json.hh"
#include "driver/spec.hh"

namespace prophet::driver
{
namespace
{

// --------------------------------------------------------- JSON layer

json::Value
parseOk(const std::string &text)
{
    json::Value v;
    std::string err;
    EXPECT_TRUE(json::parse(text, v, &err)) << err;
    return v;
}

std::string
parseErr(const std::string &text)
{
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse(text, v, &err)) << "accepted: " << text;
    EXPECT_FALSE(err.empty());
    return err;
}

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_EQ(parseOk("true").asBool(), true);
    EXPECT_EQ(parseOk("false").asBool(), false);
    EXPECT_DOUBLE_EQ(parseOk("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parseOk("-1.5e3").asNumber(), -1500.0);
    EXPECT_EQ(parseOk("\"hi\\n\\\"there\\\"\"").asString(),
              "hi\n\"there\"");
    EXPECT_EQ(parseOk("\"\\u0041\\u00e9\"").asString(), "A\xc3\xa9");
}

TEST(Json, ParsesContainers)
{
    auto v = parseOk("{\"a\": [1, 2, {\"b\": true}], \"c\": null}");
    ASSERT_TRUE(v.isObject());
    const json::Value *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->asArray().size(), 3u);
    EXPECT_TRUE(a->asArray()[2].find("b")->asBool());
    EXPECT_TRUE(v.find("c")->isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, AllowsCommentsAndTrailingCommas)
{
    auto v = parseOk("// leading comment\n"
                     "{\n"
                     "  \"a\": 1, // trailing comment\n"
                     "  \"b\": [1, 2,],\n"
                     "}\n");
    EXPECT_DOUBLE_EQ(v.find("a")->asNumber(), 1.0);
    EXPECT_EQ(v.find("b")->asArray().size(), 2u);
}

TEST(Json, RejectsMalformedInput)
{
    parseErr("");
    parseErr("{");
    parseErr("[1, 2");
    parseErr("{\"a\" 1}");
    parseErr("{\"a\": }");
    parseErr("\"unterminated");
    parseErr("tru");
    parseErr("1.2.3");
    parseErr("{} trailing");
    parseErr("{\"a\": 1, \"a\": 2}"); // duplicate key
    parseErr("\"bad \\q escape\"");
}

TEST(Json, RejectsPathologicalNestingWithoutCrashing)
{
    std::string deep(100000, '[');
    auto err = parseErr(deep);
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
    // Legitimate nesting well past any real spec still parses.
    std::string ok(100, '[');
    ok += "1";
    ok += std::string(100, ']');
    parseOk(ok);
}

TEST(Json, ErrorsCarryLineAndColumn)
{
    std::string err = parseErr("{\n  \"a\": nope\n}");
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Json, DumpRoundTripsDoublesExactly)
{
    json::Value v = json::Value::makeObject();
    v.set("ipc", json::Value(0.1234567890123456789));
    v.set("count", json::Value(std::uint64_t{123456789012345ull}));
    auto text = json::dump(v);
    json::Value back;
    ASSERT_TRUE(json::parse(text, back, nullptr));
    // Bit-for-bit: the writer uses %.17g for non-integral doubles
    // and integer form for integral ones.
    EXPECT_EQ(back.find("ipc")->asNumber(),
              v.find("ipc")->asNumber());
    EXPECT_EQ(back.find("count")->asNumber(),
              v.find("count")->asNumber());
    EXPECT_NE(text.find("123456789012345"), std::string::npos);
}

// --------------------------------------------------------- spec layer

ExperimentSpec
specOk(const std::string &text)
{
    return ExperimentSpec::fromJson(parseOk(text));
}

std::string
specErr(const std::string &text)
{
    auto doc = parseOk(text);
    try {
        ExperimentSpec::fromJson(doc);
    } catch (const SpecError &e) {
        return e.what();
    }
    ADD_FAILURE() << "spec accepted: " << text;
    return {};
}

TEST(Spec, ParsesFullSpec)
{
    auto spec = specOk(
        "{\"name\": \"t\", \"workloads\": [\"mcf\", \"@gcc\"],"
        " \"pipelines\": [\"baseline\", \"prophet\"],"
        " \"metrics\": [\"ipc\"], \"records\": 1000,"
        " \"threads\": 3, \"l1\": \"ipcp\", \"dram_channels\": 2,"
        " \"warmup_records\": 5, \"trace_cache\": false,"
        " \"sinks\": [{\"type\": \"json\", \"path\": \"o.json\"}]}");
    EXPECT_EQ(spec.name, "t");
    EXPECT_EQ(spec.workloads.size(), 10u); // mcf + 9 gcc inputs
    EXPECT_EQ(spec.workloads[0], "mcf");
    EXPECT_EQ(spec.workloads[1], "gcc_166");
    EXPECT_EQ(spec.pipelines.size(), 2u);
    EXPECT_EQ(spec.records, 1000u);
    EXPECT_EQ(spec.threads, 3u);
    EXPECT_EQ(spec.dramChannels, 2u);
    EXPECT_FALSE(spec.traceCache);
    ASSERT_EQ(spec.sinks.size(), 1u);
    EXPECT_EQ(spec.sinks[0].kind, SinkSpec::Kind::JsonFile);
    EXPECT_EQ(spec.sinks[0].path, "o.json");

    auto cfg = spec.baseConfig();
    EXPECT_EQ(cfg.l1Pf, sim::L1PfKind::Ipcp);
    EXPECT_EQ(cfg.hier.dram.channels, 2u);
    EXPECT_EQ(cfg.warmupRecords, 5u);
}

TEST(Spec, DeduplicatesExpandedWorkloads)
{
    auto spec = specOk("{\"workloads\": [\"mcf\", \"@spec\","
                       " \"mcf\"],"
                       " \"pipelines\": [\"prophet\"]}");
    // "@spec" contains mcf; first mention wins and nothing repeats.
    EXPECT_EQ(spec.workloads.size(), 7u);
    EXPECT_EQ(spec.workloads[0], "mcf");
}

TEST(Spec, DefaultsAreMinimal)
{
    auto spec = specOk("{\"workloads\": [\"@spec\"],"
                       " \"pipelines\": [\"triangel\"]}");
    EXPECT_EQ(spec.workloads.size(), 7u);
    EXPECT_EQ(spec.metrics, std::vector<std::string>{"speedup"});
    EXPECT_EQ(spec.records, 0u);
    EXPECT_EQ(spec.threads, 1u);
    EXPECT_TRUE(spec.traceCache);
    EXPECT_TRUE(spec.sinks.empty());
    // Default config: no warmup override.
    EXPECT_EQ(spec.baseConfig().warmupRecords,
              sim::SystemConfig::table1().warmupRecords);
}

TEST(Spec, RejectsUnknownTopLevelKey)
{
    auto err = specErr("{\"workloads\": [\"mcf\"],"
                       " \"pipelines\": [\"prophet\"],"
                       " \"theads\": 4}");
    EXPECT_NE(err.find("theads"), std::string::npos) << err;
}

TEST(Spec, RejectsBadWorkloadName)
{
    auto err = specErr("{\"workloads\": [\"mcf_typo\"],"
                       " \"pipelines\": [\"prophet\"]}");
    EXPECT_NE(err.find("mcf_typo"), std::string::npos) << err;
    specErr("{\"workloads\": [\"gcc_nope\"],"
            " \"pipelines\": [\"prophet\"]}");
    specErr("{\"workloads\": [\"@nope\"],"
            " \"pipelines\": [\"prophet\"]}");
    specErr("{\"workloads\": [\"bfs_abc_8\"],"
            " \"pipelines\": [\"prophet\"]}");
    // Vertex counts the generators reject (they assert >= 2, and
    // the factory casts through uint32) must fail validation up
    // front, not abort mid-run.
    specErr("{\"workloads\": [\"bfs_0_8\"],"
            " \"pipelines\": [\"prophet\"]}");
    specErr("{\"workloads\": [\"bfs_1_8\"],"
            " \"pipelines\": [\"prophet\"]}");
    specErr("{\"workloads\": [\"bfs_4294967296_8\"],"
            " \"pipelines\": [\"prophet\"]}");
    // Graph labels beyond the figure's list are legal if well-formed.
    auto spec = specOk("{\"workloads\": [\"bfs_1234_7\"],"
                       " \"pipelines\": [\"prophet\"]}");
    EXPECT_EQ(spec.workloads[0], "bfs_1234_7");
}

TEST(Spec, RejectsBadPipelinesMetricsAndSinks)
{
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": []}");
    specErr("{\"workloads\": [\"mcf\"],"
            " \"pipelines\": [\"warpspeed\"]}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"metrics\": [\"vibes\"]}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"sinks\": [{\"type\": \"json\"}]}"); // missing path
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"sinks\": [{\"type\": \"xml\", \"path\": \"x\"}]}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"sinks\": [{\"type\": \"table\", \"pth\": \"x\"}]}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"records\": -5}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"records\": 1.5}");
    // Out-of-range counts must error, not wrap/truncate into a
    // silently different experiment.
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"records\": 1e20}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"threads\": 4294967297}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"l1\": \"bogus\"}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"dram_channels\": 0}");
    specErr("{\"workloads\": \"mcf\", \"pipelines\": [\"prophet\"]}");
    specErr("{\"pipelines\": [\"prophet\"]}"); // missing workloads
    specErr("{\"workloads\": [\"mcf\"]}");     // missing pipelines
    specErr("[]");                             // not an object
}

TEST(Spec, RejectsMvbGeometriesTheBufferCannotBuild)
{
    // The MVB holds 4 targets per set and a power-of-two number of
    // sets. Anything else must fail validation (exit 3), not abort
    // the process on the buffer's constructor assertion.
    auto prophet = [](const std::string &params) {
        return "{\"workloads\": [\"mcf\"], \"pipelines\":"
               " [{\"name\": \"prophet\", " + params + "}]}";
    };
    auto err = specErr(prophet("\"mvb_candidates\": 5"));
    EXPECT_NE(err.find("mvb_candidates"), std::string::npos) << err;
    err = specErr(prophet("\"mvb_entries\": 1000"));
    EXPECT_NE(err.find("mvb_entries"), std::string::npos) << err;
    specErr(prophet("\"mvb_entries\": 2"));
    specErr(prophet("\"mvb_entries\": 12"));
    // A sweep point is validated the same way.
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"sweep\": {\"param\": \"mvb_candidates\","
            " \"values\": [1, 8]}}");

    specOk(prophet("\"mvb_candidates\": 4"));
    specOk(prophet("\"mvb_entries\": 65536"));
    specOk(prophet("\"mvb_entries\": 4, \"mvb_candidates\": 4"));
}

TEST(Spec, RejectsPlruMetadataReplacement)
{
    // Tree-PLRU needs a power-of-two associativity, and the Markov
    // table's (maxWays x 12) never is one: the spec must fail
    // validation (exit 3), not end the process in makePolicy(),
    // which knows no "plru".
    auto triage = [](const std::string &name, const std::string &repl) {
        return "{\"workloads\": [\"mcf\"], \"pipelines\":"
               " [{\"name\": \"" + name + "\", \"meta_replacement\":"
               " \"" + repl + "\"}]}";
    };
    for (const char *name : {"triage", "triage4"}) {
        SCOPED_TRACE(name);
        auto err = specErr(triage(name, "plru"));
        EXPECT_NE(err.find("meta_replacement"), std::string::npos)
            << err;
        specOk(triage(name, "lru"));
    }
}

TEST(Spec, HashIsContentBased)
{
    // Aliases, comments, trailing commas and formatting do not change
    // the result hash; the experiment's content does.
    auto a = specOk("{\"workloads\": [\"@spec\"],"
                    " \"pipelines\": [\"prophet\"]}");
    auto b = specOk("// same thing, spelled out\n"
                    "{\"workloads\": [\"astar_biglakes\","
                    " \"gcc_166\", \"mcf\", \"omnetpp\","
                    " \"soplex_pds-50\", \"sphinx3\","
                    " \"xalancbmk\"],\n"
                    " \"pipelines\": [\"prophet\",],}");
    EXPECT_EQ(a.resultHash(0), b.resultHash(0));
    auto c = specOk("{\"workloads\": [\"@spec\"],"
                    " \"pipelines\": [\"triangel\"]}");
    EXPECT_NE(a.resultHash(0), c.resultHash(0));
}

TEST(Spec, FromFileReportsIoAndParseErrors)
{
    EXPECT_THROW(ExperimentSpec::fromFile("/nonexistent/x.json"),
                 SpecError);
}

TEST(Spec, ParsesSamplingObject)
{
    auto spec = specOk(
        "{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
        " \"sampling\": {\"warmup_records\": 20000,"
        " \"window_records\": 10000,"
        " \"interval_records\": 300000, \"offset\": 7}}");
    EXPECT_TRUE(spec.sampling.enabled);
    EXPECT_EQ(spec.sampling.warmupRecords, 20000u);
    EXPECT_EQ(spec.sampling.windowRecords, 10000u);
    EXPECT_EQ(spec.sampling.intervalRecords, 300000u);
    EXPECT_EQ(spec.sampling.offset, 7u);
    EXPECT_TRUE(spec.baseConfig().sampling.enabled);
    EXPECT_EQ(spec.baseConfig().sampling.windowRecords, 10000u);

    // Empty object: sampling on with every default.
    auto defaults = specOk(
        "{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
        " \"sampling\": {}}");
    EXPECT_TRUE(defaults.sampling.enabled);
    EXPECT_EQ(defaults.sampling.windowRecords,
              sim::SamplingConfig{}.windowRecords);
}

TEST(Spec, RejectsBadSampling)
{
    // Not an object / unknown key inside.
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"sampling\": true}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"sampling\": {\"windw_records\": 5}}");
    // Degenerate schedules are parse errors, never silent clamps.
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"sampling\": {\"window_records\": 0}}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"sampling\": {\"interval_records\": 0}}");
    specErr("{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
            " \"sampling\": {\"window_records\": 1000,"
            " \"interval_records\": 500}}");
    // Sampling in a static report spec is meaningless.
    specErr("{\"report\": \"system-config\","
            " \"sampling\": {\"window_records\": 1000}}");
}

TEST(Spec, SamplingChangesHashesOnlyWhenPresent)
{
    auto plain = specOk(
        "{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"]}");
    auto sampled = specOk(
        "{\"workloads\": [\"mcf\"], \"pipelines\": [\"prophet\"],"
        " \"sampling\": {\"interval_records\": 300000}}");
    // Pre-sampling canonical form carries no "sampling" key, so
    // archived dumps are unchanged.
    EXPECT_EQ(plain.toJson().find("sampling"), nullptr);
    ASSERT_NE(sampled.toJson().find("sampling"), nullptr);
    // Sampling changes the numbers: results must not compare equal.
    EXPECT_NE(plain.resultHash(1000), sampled.resultHash(1000));
}

} // anonymous namespace
} // namespace prophet::driver
