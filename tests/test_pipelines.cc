/**
 * @file
 * Pipeline-registry tests. The registry replaced four hand-written
 * dispatch chains (driver dispatch, spec name/display lists, the
 * Runner's per-pipeline methods); these tests pin two properties:
 *
 *  1. Completeness/equivalence: every registered pipeline, run
 *     through the uniform Runner::run, is bit-for-bit identical to
 *     the legacy per-pipeline configuration it replaced (spelled out
 *     here exactly as the deleted code spelled it), and the
 *     parameterized paths (degree, replacement policy, Prophet
 *     features/learning) match their hand-built equivalents.
 *
 *  2. Validation: unknown pipeline names, unknown parameter keys,
 *     ill-typed or out-of-range values, and malformed "sweep" blocks
 *     are rejected at spec-parse time with errors that name the
 *     offender — never mid-run aborts.
 */

#include <gtest/gtest.h>

#include "core/analyzer.hh"
#include "core/learner.hh"
#include "driver/json.hh"
#include "driver/spec.hh"
#include "sim/pipelines.hh"
#include "sim/runner.hh"
#include "workloads/registry.hh"

namespace prophet::sim
{
namespace
{

/** Short traces keep the full-registry sweep fast. */
constexpr std::size_t kRecords = 20'000;

void
expectSameRun(const RunStats &a, const RunStats &b,
              const std::string &what)
{
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.l2DemandMisses, b.l2DemandMisses) << what;
    EXPECT_EQ(a.l2PrefetchesIssued, b.l2PrefetchesIssued) << what;
    EXPECT_EQ(a.l2PrefetchesUseful, b.l2PrefetchesUseful) << what;
    EXPECT_EQ(a.dramReads, b.dramReads) << what;
    EXPECT_EQ(a.dramWrites, b.dramWrites) << what;
    EXPECT_EQ(a.offchipMeta.total(), b.offchipMeta.total()) << what;
}

/**
 * The legacy per-pipeline Runner path for every registered name,
 * captured before its deletion (Runner::runTriage/runTriangel and the
 * driver.cc if-chain). Triage4 is the one Triage kind at degree 4.
 */
RunStats
legacyRun(Runner &runner, const std::string &pipeline,
          const std::string &workload)
{
    if (pipeline == "baseline")
        return runner.baseline(workload);
    if (pipeline == "rpg2")
        return runner.runRpg2(workload).stats;
    if (pipeline == "triage" || pipeline == "triage4") {
        SystemConfig cfg = runner.baseConfig();
        cfg.l2Pf = L2PfKind::Triage;
        cfg.triage.degree = pipeline == "triage4" ? 4 : 1;
        return runner.runConfig(workload, cfg);
    }
    if (pipeline == "triangel") {
        SystemConfig cfg = runner.baseConfig();
        cfg.l2Pf = L2PfKind::Triangel;
        return runner.runConfig(workload, cfg);
    }
    if (pipeline == "prophet")
        return runner.runProphet(workload).stats;
    if (pipeline == "stms" || pipeline == "domino") {
        SystemConfig cfg = runner.baseConfig();
        cfg.l2Pf = pipeline == "stms" ? L2PfKind::Stms
                                      : L2PfKind::Domino;
        return runner.runConfig(workload, cfg);
    }
    ADD_FAILURE() << "legacyRun has no recipe for a newly "
                     "registered pipeline \""
                  << pipeline
                  << "\" — add one (and keep this test complete)";
    return RunStats{};
}

TEST(PipelineRegistry, EveryPipelineMatchesLegacyPathBitForBit)
{
    Runner registry_runner(SystemConfig::table1(), kRecords);
    Runner legacy_runner(SystemConfig::table1(), kRecords);
    ASSERT_FALSE(pipelineRegistry().empty());
    for (const auto &def : pipelineRegistry()) {
        SCOPED_TRACE(def.name);
        RunStats via_registry =
            registry_runner.run(def.name, "mcf");
        RunStats via_legacy = legacyRun(legacy_runner, def.name,
                                        "mcf");
        expectSameRun(via_registry, via_legacy, def.name);
    }
}

TEST(PipelineRegistry, LookupAndDisplayNames)
{
    EXPECT_NE(findPipeline("prophet"), nullptr);
    EXPECT_EQ(findPipeline("warpspeed"), nullptr);
    EXPECT_EQ(pipelineDisplayName("rpg2"), "RPG2");
    EXPECT_EQ(pipelineDisplayName("stms"), "STMS");
    EXPECT_EQ(pipelineDisplayName("unregistered"), "unregistered");
    EXPECT_EQ(pipelineNames().size(), pipelineRegistry().size());
    // Column titles: explicit labels win over display names.
    PipelineInstance labelled("triage");
    EXPECT_EQ(pipelineColumnTitle(labelled), "Triage");
    labelled.label = "triage-d4";
    EXPECT_EQ(pipelineColumnTitle(labelled), "triage-d4");
}

TEST(PipelineRegistry, RunnerRunValidatesParameterBags)
{
    // The uniform entry point enforces the same validation as the
    // spec parser — a programmatic caller cannot silently run a
    // different configuration than the one it named.
    Runner runner(SystemConfig::table1(), kRecords);
    PipelineInstance bad_degree("triage");
    bad_degree.params["degree"] = ParamValue::makeNumber(2);
    EXPECT_THROW(runner.run(bad_degree, "mcf"), PipelineError);
    PipelineInstance unknown_param("triage4");
    unknown_param.params["degree"] = ParamValue::makeNumber(4);
    EXPECT_THROW(runner.run(unknown_param, "mcf"), PipelineError);
}

TEST(PipelineRegistry, UnknownNameThrowsListingRegistered)
{
    Runner runner(SystemConfig::table1(), kRecords);
    try {
        runner.run("warpspeed", "mcf");
        FAIL() << "unknown pipeline accepted";
    } catch (const PipelineError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("warpspeed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("prophet"), std::string::npos) << msg;
        EXPECT_NE(msg.find("triangel"), std::string::npos) << msg;
    }
}

TEST(PipelineRegistry, TriageDegreeParamMatchesTriage4Pipeline)
{
    Runner runner(SystemConfig::table1(), kRecords);
    PipelineInstance d4("triage");
    d4.params["degree"] = ParamValue::makeNumber(4);
    expectSameRun(runner.run(d4, "mcf"),
                  runner.run("triage4", "mcf"), "triage degree=4");
}

TEST(PipelineRegistry, TriageReplacementParamMatchesHandBuiltConfig)
{
    Runner runner(SystemConfig::table1(), kRecords);
    PipelineInstance p("triage4");
    p.params["meta_replacement"] = ParamValue::makeString("srrip");
    p.params["bloom_resizing"] = ParamValue::makeBool(false);

    SystemConfig cfg = runner.baseConfig();
    cfg.l2Pf = L2PfKind::Triage;
    cfg.triage.degree = 4;
    cfg.triage.metaReplacement = "srrip";
    cfg.triage.bloomResizing = false;
    expectSameRun(runner.run(p, "mcf"), runner.runConfig("mcf", cfg),
                  "triage4 srrip");
}

TEST(PipelineRegistry, ProphetFeatureAndKnobParamsMatchDirectCalls)
{
    Runner runner(SystemConfig::table1(), kRecords);

    // Feature subset (the Figure 19 stages).
    PipelineInstance repla("prophet");
    repla.params["features"] =
        ParamValue::makeList({"replacement", "insertion"});
    core::ProphetConfig pcfg;
    pcfg.features = core::ProphetFeatures{true, true, false, false};
    expectSameRun(runner.run(repla, "mcf"),
                  runner.runProphet("mcf", {}, pcfg).stats,
                  "prophet features");

    // Analyzer knob (the Figure 16 sweeps).
    PipelineInstance el("prophet");
    el.params["el_acc"] = ParamValue::makeNumber(0.25);
    core::AnalyzerConfig acfg;
    acfg.elAcc = 0.25;
    expectSameRun(
        runner.run(el, "mcf"),
        runner.runProphet("mcf", acfg, core::ProphetConfig{}).stats,
        "prophet el_acc");

    // "binary": "none" — the unmodified-binary Disable bars.
    PipelineInstance off("prophet");
    off.params["binary"] = ParamValue::makeString("none");
    off.params["features"] = ParamValue::makeList({});
    core::ProphetConfig bare;
    bare.features = core::ProphetFeatures{false, false, false, false};
    expectSameRun(runner.run(off, "mcf"),
                  runner.runProphetWithBinary(
                      "mcf", core::OptimizedBinary{}, bare),
                  "prophet disable");
}

TEST(PipelineRegistry, ProphetLearnMatchesIncrementalLearner)
{
    Runner runner(SystemConfig::table1(), kRecords);
    PipelineInstance learned("prophet");
    learned.params["learn"] =
        ParamValue::makeList({"astar_biglakes", "astar_rivers"});
    RunStats via_registry = runner.run(learned, "astar_rivers");

    // The Figure 13/14 loop, incrementally, as the benches spell it.
    core::Learner learner;
    learner.learn(runner.profileWorkload("astar_biglakes"));
    learner.learn(runner.profileWorkload("astar_rivers"));
    core::Analyzer analyzer;
    RunStats direct = runner.runProphetWithBinary(
        "astar_rivers", analyzer.analyze(learner.merged()));
    expectSameRun(via_registry, direct, "prophet learn");
}

TEST(PipelineRegistry, ParamBagAccessorsValidateTypes)
{
    PipelineInstance p("prophet");
    p.params["el_acc"] = ParamValue::makeNumber(0.05);
    EXPECT_EQ(p.number("el_acc", 0.15), 0.05);
    EXPECT_EQ(p.number("n_bits", 2.0), 2.0); // absent -> default
    EXPECT_THROW(p.boolean("el_acc", true), PipelineError);
    EXPECT_THROW(p.string("el_acc", ""), PipelineError);
    EXPECT_THROW(p.stringList("el_acc"), PipelineError);
    EXPECT_EQ(p.stringList("features"), nullptr);
}

TEST(PipelineRegistry, ValidateRejectsBadParams)
{
    auto bad = [](PipelineInstance p, const std::string &needle) {
        try {
            validatePipeline(p);
            ADD_FAILURE() << "accepted; wanted error with \""
                          << needle << "\"";
        } catch (const PipelineError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    PipelineInstance unknown_key("triangel");
    unknown_key.params["degree"] = ParamValue::makeNumber(4);
    bad(unknown_key, "accepts no parameters");

    PipelineInstance typo("triage");
    typo.params["degre"] = ParamValue::makeNumber(4);
    bad(typo, "degre");

    PipelineInstance ill_typed("triage");
    ill_typed.params["degree"] = ParamValue::makeString("four");
    bad(ill_typed, "must be a number");

    PipelineInstance bad_degree("triage");
    bad_degree.params["degree"] = ParamValue::makeNumber(3);
    bad(bad_degree, "1 or 4");

    // Numeric constraints from ParamInfo: fractions and
    // out-of-range values must fail loudly, never truncate or hit
    // an undefined double -> unsigned cast.
    PipelineInstance fractional("triage");
    fractional.params["degree"] = ParamValue::makeNumber(2.5);
    bad(fractional, "integer");

    PipelineInstance huge("prophet");
    huge.params["mvb_entries"] = ParamValue::makeNumber(1e10);
    bad(huge, "mvb_entries");

    PipelineInstance negative("prophet");
    negative.params["el_acc"] = ParamValue::makeNumber(-0.1);
    bad(negative, "el_acc");

    // The Analyzer's 2^n priority levels stop at n = 4.
    PipelineInstance wide_priority("prophet");
    wide_priority.params["n_bits"] = ParamValue::makeNumber(5);
    bad(wide_priority, "must be in [1, 4]");

    PipelineInstance bad_policy("triage");
    bad_policy.params["meta_replacement"] =
        ParamValue::makeString("fifo");
    bad(bad_policy, "fifo");

    PipelineInstance bad_feature("prophet");
    bad_feature.params["features"] =
        ParamValue::makeList({"telepathy"});
    bad(bad_feature, "telepathy");

    PipelineInstance bad_binary("prophet");
    bad_binary.params["binary"] = ParamValue::makeString("jit");
    bad(bad_binary, "jit");

    PipelineInstance bad_learn("prophet");
    bad_learn.params["learn"] = ParamValue::makeList({"mcf_typo"});
    bad(bad_learn, "mcf_typo");

    PipelineInstance learn_vs_none("prophet");
    learn_vs_none.params["learn"] = ParamValue::makeList({"mcf"});
    learn_vs_none.params["binary"] = ParamValue::makeString("none");
    bad(learn_vs_none, "conflicts");
}

/**
 * Everything a run reports, compared field by field (closer to
 * bit-identity than expectSameRun: also per-PC miss maps, Markov
 * statistics, and DRAM traffic splits).
 */
void
expectIdenticalStats(const RunStats &a, const RunStats &b,
                     const std::string &what)
{
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.records, b.records) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.l2DemandAccesses, b.l2DemandAccesses) << what;
    EXPECT_EQ(a.l2DemandMisses, b.l2DemandMisses) << what;
    EXPECT_EQ(a.llcMisses, b.llcMisses) << what;
    EXPECT_EQ(a.l2PrefetchesIssued, b.l2PrefetchesIssued) << what;
    EXPECT_EQ(a.l2PrefetchesUseful, b.l2PrefetchesUseful) << what;
    EXPECT_EQ(a.latePrefetches, b.latePrefetches) << what;
    EXPECT_EQ(a.dramReads, b.dramReads) << what;
    EXPECT_EQ(a.dramWrites, b.dramWrites) << what;
    EXPECT_EQ(a.dramPrefetchReads, b.dramPrefetchReads) << what;
    EXPECT_EQ(a.markov.lookups, b.markov.lookups) << what;
    EXPECT_EQ(a.markov.hits, b.markov.hits) << what;
    EXPECT_EQ(a.markov.inserts, b.markov.inserts) << what;
    EXPECT_EQ(a.markov.replacements, b.markov.replacements) << what;
    EXPECT_EQ(a.offchipMeta.metadataReads, b.offchipMeta.metadataReads)
        << what;
    EXPECT_EQ(a.offchipMeta.metadataWrites,
              b.offchipMeta.metadataWrites)
        << what;
    EXPECT_EQ(a.finalMetadataWays, b.finalMetadataWays) << what;
    ASSERT_EQ(a.pcMisses.size(), b.pcMisses.size()) << what;
    for (const auto &[pc, misses] : a.pcMisses) {
        auto it = b.pcMisses.find(pc);
        ASSERT_NE(it, b.pcMisses.end()) << what;
        EXPECT_EQ(misses, it->second) << what;
    }
}

/**
 * run() walks the trace's SoA arrays directly instead of
 * materializing records, so it must stay bit-identical to driving the
 * system record by record through the scalar step() API — for every
 * pipeline's system configuration, on the smoke workloads.
 */
TEST(SystemRunLoop, BitIdenticalToScalarStepLoop)
{
    const struct
    {
        L2PfKind kind;
        unsigned triageDegree;
        const char *name;
    } kinds[] = {
        {L2PfKind::None, 1, "none"},
        {L2PfKind::Triage, 1, "triage"},
        {L2PfKind::Triage, 4, "triage4"},
        {L2PfKind::Triangel, 1, "triangel"},
        {L2PfKind::Prophet, 1, "prophet"},
        {L2PfKind::Simplified, 1, "simplified"},
        {L2PfKind::Stms, 1, "stms"},
        {L2PfKind::Domino, 1, "domino"},
    };
    for (const char *workload : {"mcf", "omnetpp"}) {
        auto gen = workloads::makeWorkload(workload, kRecords);
        const trace::Trace t = gen->generate();
        for (const auto &[kind, triage_degree, name] : kinds) {
            SystemConfig cfg = SystemConfig::table1();
            cfg.l2Pf = kind;
            cfg.triage.degree = triage_degree;

            System via_run(cfg, gen->resolver());
            RunStats run_stats = via_run.run(t);

            System via_step(cfg, gen->resolver());
            via_step.beginRun(t.size());
            for (std::size_t i = 0; i < t.size(); ++i)
                via_step.step(t[i]);
            RunStats step_stats = via_step.finish();

            expectIdenticalStats(run_stats, step_stats,
                                 std::string(workload) + "/" + name);
        }
    }
}

} // anonymous namespace
} // namespace prophet::sim

// ------------------------------------------------ spec-layer errors

namespace prophet::driver
{
namespace
{

json::Value
parseOk(const std::string &text)
{
    json::Value v;
    std::string err;
    EXPECT_TRUE(json::parse(text, v, &err)) << err;
    return v;
}

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

TEST(PipelineSpec, ObjectFormParsesNameLabelAndParams)
{
    auto spec = specOk(
        "{\"workloads\": [\"mcf\"],"
        " \"pipelines\": [\"baseline\","
        "   {\"name\": \"triage\", \"degree\": 4,"
        "    \"meta_replacement\": \"srrip\","
        "    \"label\": \"triage-d4\"},"
        "   {\"name\": \"prophet\","
        "    \"features\": [\"replacement\", \"mvb\"]}]}");
    ASSERT_EQ(spec.pipelines.size(), 3u);
    EXPECT_EQ(spec.pipelines[0].name, "baseline");
    EXPECT_EQ(spec.pipelines[0].resultName(), "baseline");
    EXPECT_EQ(spec.pipelines[1].name, "triage");
    EXPECT_EQ(spec.pipelines[1].resultName(), "triage-d4");
    EXPECT_EQ(spec.pipelines[1].number("degree", 1), 4.0);
    EXPECT_EQ(spec.pipelines[1].string("meta_replacement", ""),
              "srrip");
    ASSERT_NE(spec.pipelines[2].stringList("features"), nullptr);
    EXPECT_EQ(spec.pipelines[2].stringList("features")->size(), 2u);
}

TEST(PipelineSpec, UnknownPipelineErrorListsRegisteredOnes)
{
    auto err = specErr("{\"workloads\": [\"mcf\"],"
                       " \"pipelines\": [\"warpspeed\"]}");
    EXPECT_NE(err.find("warpspeed"), std::string::npos) << err;
    EXPECT_NE(err.find("registered:"), std::string::npos) << err;
    EXPECT_NE(err.find("triangel"), std::string::npos) << err;
}

TEST(PipelineSpec, UnknownOrIllTypedParamsAreParseErrors)
{
    auto err = specErr(
        "{\"workloads\": [\"mcf\"],"
        " \"pipelines\": [{\"name\": \"triage\", \"degre\": 4}]}");
    EXPECT_NE(err.find("degre"), std::string::npos) << err;
    EXPECT_NE(err.find("accepted:"), std::string::npos) << err;

    specErr("{\"workloads\": [\"mcf\"],"
            " \"pipelines\": [{\"name\": \"triage\","
            "                  \"degree\": \"four\"}]}");
    specErr("{\"workloads\": [\"mcf\"],"
            " \"pipelines\": [{\"name\": \"prophet\","
            "                  \"el_acc\": 7}]}");
    specErr("{\"workloads\": [\"mcf\"],"
            " \"pipelines\": [{\"name\": \"prophet\","
            "                  \"features\": [1, 2]}]}");
    specErr("{\"workloads\": [\"mcf\"],"
            " \"pipelines\": [{\"label\": \"x\"}]}"); // no name
    specErr("{\"workloads\": [\"mcf\"],"
            " \"pipelines\": [42]}");
}

TEST(PipelineSpec, DuplicateResultNamesRejected)
{
    auto err = specErr("{\"workloads\": [\"mcf\"],"
                       " \"pipelines\": [\"prophet\","
                       "                 \"prophet\"]}");
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
    // Distinct labels resolve the collision.
    specOk("{\"workloads\": [\"mcf\"],"
           " \"pipelines\": [\"prophet\","
           "  {\"name\": \"prophet\", \"label\": \"p2\"}]}");
}

TEST(PipelineSpec, SweepCrossProductsPipelinesWithValues)
{
    auto spec = specOk(
        "{\"workloads\": [\"mcf\"],"
        " \"pipelines\": [{\"name\": \"prophet\"},"
        "   {\"name\": \"prophet\", \"features\": [\"mvb\"],"
        "    \"label\": \"mvb-only\"}],"
        " \"sweep\": {\"param\": \"el_acc\","
        "             \"values\": [0.05, 0.25]}}");
    ASSERT_EQ(spec.pipelines.size(), 4u);
    EXPECT_EQ(spec.pipelines[0].resultName(), "prophet el_acc=0.05");
    EXPECT_EQ(spec.pipelines[1].resultName(), "prophet el_acc=0.25");
    EXPECT_EQ(spec.pipelines[2].resultName(), "mvb-only el_acc=0.05");
    EXPECT_EQ(spec.pipelines[3].resultName(), "mvb-only el_acc=0.25");
    EXPECT_EQ(spec.pipelines[1].number("el_acc", 0.15), 0.25);
    // The sweep changes results, so it must change the result hash.
    auto base = specOk("{\"workloads\": [\"mcf\"],"
                       " \"pipelines\": [{\"name\": \"prophet\"}]}");
    EXPECT_NE(spec.resultHash(0), base.resultHash(0));
}

TEST(PipelineSpec, MalformedSweepBlocksRejected)
{
    const char *head = "{\"workloads\": [\"mcf\"],"
                       " \"pipelines\": [\"prophet\"],";
    specErr(std::string(head) + " \"sweep\": 4}");
    specErr(std::string(head) + " \"sweep\": {}}");
    specErr(std::string(head)
            + " \"sweep\": {\"param\": \"el_acc\"}}");
    specErr(std::string(head)
            + " \"sweep\": {\"param\": \"el_acc\","
              " \"values\": []}}");
    specErr(std::string(head)
            + " \"sweep\": {\"param\": \"el_acc\","
              " \"values\": [0.1], \"extra\": 1}}");
    // A parameter some listed pipeline does not accept.
    specErr("{\"workloads\": [\"mcf\"],"
            " \"pipelines\": [\"prophet\", \"triangel\"],"
            " \"sweep\": {\"param\": \"el_acc\","
            "             \"values\": [0.1]}}");
    // A parameter already pinned on an instance.
    specErr("{\"workloads\": [\"mcf\"],"
            " \"pipelines\": [{\"name\": \"prophet\","
            "                  \"el_acc\": 0.15}],"
            " \"sweep\": {\"param\": \"el_acc\","
            "             \"values\": [0.1]}}");
    // Sweep values are validated like pinned values.
    specErr(std::string(head)
            + " \"sweep\": {\"param\": \"el_acc\","
              " \"values\": [0.1, 7]}}");
    // No pipelines to expand.
    specErr("{\"workloads\": [\"mcf\"],"
            " \"sweep\": {\"param\": \"el_acc\","
            " \"values\": [0.1]}}");
}

TEST(PipelineSpec, HashCanonicalizesObjectForm)
{
    // A bare name and its object form with no overrides hash alike;
    // parameter overrides change the hash; labels never do.
    auto bare = specOk("{\"workloads\": [\"mcf\"],"
                       " \"pipelines\": [\"prophet\"]}");
    auto object = specOk("{\"workloads\": [\"mcf\"],"
                         " \"pipelines\": [{\"name\": "
                         "\"prophet\"}]}");
    EXPECT_EQ(bare.resultHash(0), object.resultHash(0));

    auto tuned = specOk("{\"workloads\": [\"mcf\"],"
                        " \"pipelines\": [{\"name\": \"prophet\","
                        " \"el_acc\": 0.05}]}");
    EXPECT_NE(bare.resultHash(0), tuned.resultHash(0));

    auto labelled = specOk("{\"workloads\": [\"mcf\"],"
                           " \"pipelines\": [{\"name\": "
                           "\"prophet\", \"label\": \"p\"}]}");
    EXPECT_EQ(bare.resultHash(0), labelled.resultHash(0));
}

TEST(PipelineSpec, ReportSpecsParse)
{
    auto spec = specOk("{\"name\": \"table1\","
                       " \"report\": \"system-config\"}");
    ASSERT_NE(spec.report, nullptr);
    EXPECT_STREQ(spec.report->name, "system-config");
    EXPECT_TRUE(spec.workloads.empty());
    EXPECT_TRUE(spec.pipelines.empty());
    // Without a report, workloads/pipelines stay required.
    specErr("{}");
    // An unknown report fails and lists the known ones.
    auto err = specErr("{\"report\": \"vibes\"}");
    EXPECT_NE(err.find("vibes"), std::string::npos) << err;
    for (const ReportDef &r : reportTable())
        EXPECT_NE(err.find(r.name), std::string::npos) << err;

    // Every key a report might take, with a legal value. A report
    // takes only the keys its text depends on; any other would be
    // silently ignored, so it is an error.
    const std::pair<std::string, std::string> keys[] = {
        {"records", "1000"},
        {"threads", "2"},
        {"trace_cache", "false"},
        {"l1", "\"none\""},
        {"dram_channels", "2"},
        {"warmup_records", "5000"},
        {"keep_going", "true"},
        {"pipelines", "[\"triangel\"]"},
        {"sweep", "{\"param\": \"degree\", \"values\": [1]}"},
        {"metrics", "[\"ipc\"]"},
        {"sinks", "[{\"type\": \"json\", \"path\": \"o.json\"}]"},
        {"sampling", "{\"window_records\": 1000}"},
        {"deadline_s", "5"},
    };
    const std::string workloads = ", \"workloads\": [\"mcf\"]";
    for (const ReportDef &r : reportTable()) {
        SCOPED_TRACE(r.name);
        const std::string report =
            std::string("{\"report\": \"") + r.name + "\"";
        const bool reads_traces = r.takes("workloads");
        const std::string base =
            report + (reads_traces ? workloads : "");
        EXPECT_EQ(specOk(base + "}").report, &r);
        // A trace report needs its workloads; any other takes none.
        err = specErr(reads_traces ? report + "}"
                                   : report + workloads + "}");
        EXPECT_NE(err.find("workloads"), std::string::npos) << err;
        for (const auto &[key, value] : keys) {
            SCOPED_TRACE(key);
            const std::string text =
                base + ", \"" + key + "\": " + value + "}";
            if (r.takes(key)) {
                specOk(text);
                continue;
            }
            err = specErr(text);
            EXPECT_NE(err.find("\"" + key + "\" has no effect"),
                      std::string::npos)
                << err;
        }
    }
    // The trace reports load traces the spec sizes; the config keys
    // reach the configuration Table 1 prints and Figure 6 profiles
    // under, and no other report.
    for (const char *name :
         {"pattern-conf", "pc-accuracy", "markov-targets"}) {
        auto loaded = specOk(std::string("{\"report\": \"") + name
                             + "\"" + workloads
                             + ", \"records\": 1000, \"threads\": 2,"
                               " \"trace_cache\": false}");
        EXPECT_EQ(loaded.records, 1000u);
        EXPECT_EQ(loaded.threads, 2u);
        EXPECT_FALSE(loaded.traceCache);
    }
    EXPECT_EQ(specOk("{\"report\": \"system-config\","
                     " \"dram_channels\": 2}")
                  .baseConfig()
                  .hier.dram.channels,
              2u);
    EXPECT_EQ(specOk("{\"report\": \"pc-accuracy\"" + workloads
                     + ", \"dram_channels\": 2}")
                  .baseConfig()
                  .hier.dram.channels,
              2u);
    for (const char *name : {"storage", "pattern-conf", "markov-targets"})
        EXPECT_FALSE(findReport(name)->takes("dram_channels")) << name;
    // The result hash names the report: two reports over the same
    // workloads are different experiments.
    EXPECT_NE(specOk("{\"report\": \"pattern-conf\"" + workloads + "}")
                  .resultHash(0),
              specOk("{\"report\": \"markov-targets\"" + workloads + "}")
                  .resultHash(0));
}

} // anonymous namespace
} // namespace prophet::driver
