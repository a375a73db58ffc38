#include "sim/pipelines.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/intmath.hh"
#include "core/analyzer.hh"
#include "core/learner.hh"
#include "core/prophet.hh"
#include "sim/runner.hh"
#include "workloads/registry.hh"

namespace prophet::sim
{

// ------------------------------------------------------- ParamValue

ParamValue
ParamValue::makeNumber(double v)
{
    ParamValue p;
    p.type = Type::Number;
    p.num = v;
    return p;
}

ParamValue
ParamValue::makeBool(bool v)
{
    ParamValue p;
    p.type = Type::Bool;
    p.flag = v;
    return p;
}

ParamValue
ParamValue::makeString(std::string v)
{
    ParamValue p;
    p.type = Type::String;
    p.str = std::move(v);
    return p;
}

ParamValue
ParamValue::makeList(std::vector<std::string> v)
{
    ParamValue p;
    p.type = Type::StringList;
    p.list = std::move(v);
    return p;
}

std::string
ParamValue::display() const
{
    switch (type) {
      case Type::Number: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", num);
        return buf;
      }
      case Type::Bool:
        return flag ? "true" : "false";
      case Type::String:
        return str;
      case Type::StringList: {
        std::string out;
        for (const auto &s : list) {
            if (!out.empty())
                out += ",";
            out += s;
        }
        return out;
      }
    }
    return {};
}

std::string
paramTypeName(ParamValue::Type type)
{
    switch (type) {
      case ParamValue::Type::Number:
        return "number";
      case ParamValue::Type::Bool:
        return "boolean";
      case ParamValue::Type::String:
        return "string";
      case ParamValue::Type::StringList:
        return "list of strings";
    }
    return "value";
}

// ------------------------------------------------- PipelineInstance

namespace
{

[[noreturn]] void
typeFail(const std::string &key, ParamValue::Type want)
{
    throw PipelineError("parameter \"" + key + "\" must be a "
                        + paramTypeName(want));
}

} // anonymous namespace

bool
PipelineInstance::has(const std::string &key) const
{
    return params.count(key) != 0;
}

double
PipelineInstance::number(const std::string &key, double def) const
{
    auto it = params.find(key);
    if (it == params.end())
        return def;
    if (it->second.type != ParamValue::Type::Number)
        typeFail(key, ParamValue::Type::Number);
    return it->second.num;
}

bool
PipelineInstance::boolean(const std::string &key, bool def) const
{
    auto it = params.find(key);
    if (it == params.end())
        return def;
    if (it->second.type != ParamValue::Type::Bool)
        typeFail(key, ParamValue::Type::Bool);
    return it->second.flag;
}

std::string
PipelineInstance::string(const std::string &key,
                         const std::string &def) const
{
    auto it = params.find(key);
    if (it == params.end())
        return def;
    if (it->second.type != ParamValue::Type::String)
        typeFail(key, ParamValue::Type::String);
    return it->second.str;
}

const std::vector<std::string> *
PipelineInstance::stringList(const std::string &key) const
{
    auto it = params.find(key);
    if (it == params.end())
        return nullptr;
    if (it->second.type != ParamValue::Type::StringList)
        typeFail(key, ParamValue::Type::StringList);
    return &it->second.list;
}

// --------------------------------------------------------- registry

const ParamInfo *
PipelineDef::findParam(const std::string &key) const
{
    for (const auto &info : params)
        if (info.key == key)
            return &info;
    return nullptr;
}

namespace
{

void
requireOneOf(const PipelineInstance &p, const std::string &key,
             const std::string &def,
             const std::vector<std::string> &allowed)
{
    std::string v = p.string(key, def);
    if (std::find(allowed.begin(), allowed.end(), v) != allowed.end())
        return;
    std::string msg = "parameter \"" + key + "\" of pipeline \""
        + p.name + "\" must be one of:";
    for (const auto &a : allowed)
        msg += " " + a;
    throw PipelineError(msg + " (got \"" + v + "\")");
}

RunStats
runKind(Runner &runner, const std::string &workload, L2PfKind kind)
{
    SystemConfig cfg = runner.baseConfig();
    cfg.l2Pf = kind;
    return runner.runConfig(workload, cfg);
}

/** Shared by "triage" (degree default 1) and "triage4" (fixed 4). */
std::vector<ParamInfo>
triageParams(bool with_degree)
{
    std::vector<ParamInfo> params;
    if (with_degree)
        params.push_back({"degree", ParamValue::Type::Number,
                          "prefetch degree: 1 or 4 (default 1)",
                          true, 1.0, 4.0});
    params.push_back(
        {"meta_replacement", ParamValue::Type::String,
         "metadata replacement: hawkeye srrip lru brrip random "
         "(default hawkeye)"});
    params.push_back({"bloom_resizing", ParamValue::Type::Bool,
                      "Bloom-filter-driven table resizing (default "
                      "true)"});
    return params;
}

void
validateTriage(const PipelineInstance &p)
{
    double degree = p.number("degree", 1.0);
    if (degree != 1.0 && degree != 4.0)
        throw PipelineError(
            "parameter \"degree\" of pipeline \"" + p.name
            + "\" must be 1 or 4 (the simulated Triage points)");
    // No "plru": tree-PLRU needs a power-of-two associativity, and
    // the Markov table's (maxWays x 12) never is one.
    requireOneOf(p, "meta_replacement", "hawkeye",
                 {"hawkeye", "srrip", "lru", "brrip", "random"});
}

RunStats
runTriage(Runner &runner, const PipelineInstance &p,
          const std::string &workload, unsigned default_degree)
{
    SystemConfig cfg = runner.baseConfig();
    cfg.triage.metaReplacement =
        p.string("meta_replacement", cfg.triage.metaReplacement);
    cfg.triage.bloomResizing =
        p.boolean("bloom_resizing", cfg.triage.bloomResizing);
    cfg.triage.degree = static_cast<unsigned>(
        p.number("degree", default_degree));
    cfg.l2Pf = L2PfKind::Triage;
    return runner.runConfig(workload, cfg);
}

const std::vector<std::string> &
prophetFeatureNames()
{
    static const std::vector<std::string> names = {
        "replacement", "insertion", "mvb", "resizing"};
    return names;
}

void
validateProphet(const PipelineInstance &p)
{
    // Numeric ranges/integrality are enforced generically from the
    // ParamInfo constraints; only the cross-parameter, enum and
    // MVB-geometry checks live here.
    if (const auto *features = p.stringList("features")) {
        const auto &known = prophetFeatureNames();
        for (const auto &f : *features)
            if (std::find(known.begin(), known.end(), f)
                == known.end()) {
                std::string msg = "unknown Prophet feature \"" + f
                    + "\" (known:";
                for (const auto &k : known)
                    msg += " " + k;
                throw PipelineError(msg + ")");
            }
    }
    requireOneOf(p, "binary", "profile", {"profile", "none"});
    // The MVB's sets hold kWays targets each and their count is a
    // power of two (the range check has already bounded it).
    constexpr unsigned ways = core::MultiPathVictimBuffer::kWays;
    const auto entries = static_cast<std::uint64_t>(
        p.number("mvb_entries", core::ProphetConfig{}.mvbEntries));
    if (entries % ways != 0 || !isPowerOf2(entries / ways))
        throw PipelineError(
            "parameter \"mvb_entries\" of pipeline \"" + p.name
            + "\" must be " + std::to_string(ways)
            + " times a power of two (the Multi-path Victim Buffer's "
              "sets hold " + std::to_string(ways) + " targets)");
    if (const auto *learn = p.stringList("learn")) {
        if (p.string("binary", "profile") == "none")
            throw PipelineError(
                "pipeline \"" + p.name + "\": \"learn\" conflicts "
                "with \"binary\": \"none\" (learning produces the "
                "binary)");
        if (learn->empty())
            throw PipelineError("parameter \"learn\" of pipeline \""
                                + p.name
                                + "\" must name at least one "
                                  "workload");
        for (const auto &w : *learn)
            if (!workloads::isKnown(w))
                throw PipelineError(
                    "parameter \"learn\" of pipeline \"" + p.name
                    + "\" names unknown workload \"" + w + "\"");
    }
}

RunStats
runProphetPipeline(Runner &runner, const PipelineInstance &p,
                   const std::string &workload)
{
    core::AnalyzerConfig acfg;
    acfg.elAcc = p.number("el_acc", acfg.elAcc);
    acfg.nBits =
        static_cast<unsigned>(p.number("n_bits", acfg.nBits));
    acfg.hintCapacity = static_cast<unsigned>(
        p.number("hint_capacity", acfg.hintCapacity));

    core::ProphetConfig pcfg;
    pcfg.degree =
        static_cast<unsigned>(p.number("degree", pcfg.degree));
    pcfg.mvbEntries = static_cast<unsigned>(
        p.number("mvb_entries", pcfg.mvbEntries));
    pcfg.mvbCandidates = static_cast<unsigned>(
        p.number("mvb_candidates", pcfg.mvbCandidates));
    if (const auto *features = p.stringList("features")) {
        core::ProphetFeatures f{false, false, false, false};
        for (const auto &name : *features) {
            if (name == "replacement")
                f.replacement = true;
            else if (name == "insertion")
                f.insertion = true;
            else if (name == "mvb")
                f.mvb = true;
            else if (name == "resizing")
                f.resizing = true;
        }
        pcfg.features = f;
    }

    // "binary": "none" models running the unmodified binary (no
    // hints, no CSR — the figures' "Disable" bars).
    if (p.string("binary", "profile") == "none")
        return runner.runProphetWithBinary(
            workload, core::OptimizedBinary{}, pcfg);

    // "learn": profile the listed inputs in order, merge them with
    // the paper's learning rule, and evaluate the single merged
    // binary (Figures 13/14). Re-learning the prefix from scratch is
    // bit-identical to the incremental loop — Learner::learn is
    // deterministic and order-dependent — and the Runner's profile
    // cache makes the repeats cheap.
    if (const auto *learn = p.stringList("learn")) {
        core::Learner learner;
        for (const auto &input : *learn)
            learner.learn(runner.profileWorkload(input));
        core::Analyzer analyzer(acfg);
        return runner.runProphetWithBinary(
            workload, analyzer.analyze(learner.merged()), pcfg);
    }

    // Default: the full profile/analyze/run pipeline on the
    // evaluated workload itself.
    return runner.runProphet(workload, acfg, pcfg).stats;
}

std::vector<PipelineDef>
buildRegistry()
{
    std::vector<PipelineDef> defs;

    {
        PipelineDef d;
        d.name = "baseline";
        d.displayName = "Baseline";
        d.run = [](Runner &r, const PipelineInstance &,
                   const std::string &w) { return r.baseline(w); };
        defs.push_back(std::move(d));
    }
    {
        PipelineDef d;
        d.name = "rpg2";
        d.displayName = "RPG2";
        d.run = [](Runner &r, const PipelineInstance &,
                   const std::string &w) {
            return r.runRpg2(w).stats;
        };
        defs.push_back(std::move(d));
    }
    {
        PipelineDef d;
        d.name = "triage";
        d.displayName = "Triage";
        d.params = triageParams(true);
        d.validate = validateTriage;
        d.run = [](Runner &r, const PipelineInstance &p,
                   const std::string &w) {
            return runTriage(r, p, w, 1);
        };
        defs.push_back(std::move(d));
    }
    {
        PipelineDef d;
        d.name = "triage4";
        d.displayName = "Triage4";
        d.params = triageParams(false);
        d.validate = validateTriage;
        d.run = [](Runner &r, const PipelineInstance &p,
                   const std::string &w) {
            return runTriage(r, p, w, 4);
        };
        defs.push_back(std::move(d));
    }
    {
        PipelineDef d;
        d.name = "triangel";
        d.displayName = "Triangel";
        d.run = [](Runner &r, const PipelineInstance &,
                   const std::string &w) {
            return runKind(r, w, L2PfKind::Triangel);
        };
        defs.push_back(std::move(d));
    }
    {
        PipelineDef d;
        d.name = "stms";
        d.displayName = "STMS";
        d.run = [](Runner &r, const PipelineInstance &,
                   const std::string &w) {
            return runKind(r, w, L2PfKind::Stms);
        };
        defs.push_back(std::move(d));
    }
    {
        PipelineDef d;
        d.name = "domino";
        d.displayName = "Domino";
        d.run = [](Runner &r, const PipelineInstance &,
                   const std::string &w) {
            return runKind(r, w, L2PfKind::Domino);
        };
        defs.push_back(std::move(d));
    }
    {
        PipelineDef d;
        d.name = "prophet";
        d.displayName = "Prophet";
        d.params = {
            {"el_acc", ParamValue::Type::Number,
             "EL_ACC insertion threshold in [0, 1] (default 0.15, "
             "Figure 16a)",
             false, 0.0, 1.0},
            {"n_bits", ParamValue::Type::Number,
             "replacement priority bits (default 2, Figure 16b)",
             true, 1.0, 4.0},
            {"hint_capacity", ParamValue::Type::Number,
             "hint-buffer entries (default 128)", true, 1.0,
             65536.0},
            {"degree", ParamValue::Type::Number,
             "chained prefetch degree (default 4)", true, 1.0, 64.0},
            {"mvb_entries", ParamValue::Type::Number,
             "Multi-path Victim Buffer entries: 4 times a power of "
             "two (default 65536)",
             true, core::MultiPathVictimBuffer::kWays, 16777216.0},
            {"mvb_candidates", ParamValue::Type::Number,
             "MVB candidates per entry (default 1, Figure 16c)",
             true, 1.0, core::MultiPathVictimBuffer::kWays},
            {"features", ParamValue::Type::StringList,
             "active components: replacement insertion mvb resizing "
             "(default all, Figure 19)"},
            {"binary", ParamValue::Type::String,
             "\"profile\" the workload (default) or run with \"none\" "
             "(no hints)"},
            {"learn", ParamValue::Type::StringList,
             "profile + merge these inputs and evaluate the merged "
             "binary (Figures 13/14)"},
        };
        d.validate = validateProphet;
        d.run = runProphetPipeline;
        defs.push_back(std::move(d));
    }
    return defs;
}

} // anonymous namespace

const std::vector<PipelineDef> &
pipelineRegistry()
{
    static const std::vector<PipelineDef> defs = buildRegistry();
    return defs;
}

const PipelineDef *
findPipeline(const std::string &name)
{
    for (const auto &def : pipelineRegistry())
        if (def.name == name)
            return &def;
    return nullptr;
}

const std::vector<std::string> &
pipelineNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &def : pipelineRegistry())
            out.push_back(def.name);
        return out;
    }();
    return names;
}

std::string
registeredPipelineList()
{
    std::string out;
    for (const auto &name : pipelineNames()) {
        if (!out.empty())
            out += " ";
        out += name;
    }
    return out;
}

std::string
pipelineDisplayName(const std::string &name)
{
    const PipelineDef *def = findPipeline(name);
    return def ? def->displayName : name;
}

std::string
pipelineColumnTitle(const PipelineInstance &p)
{
    return p.label.empty() ? pipelineDisplayName(p.name) : p.label;
}

void
validatePipeline(const PipelineInstance &p)
{
    const PipelineDef *def = findPipeline(p.name);
    if (!def)
        throw PipelineError("unknown pipeline \"" + p.name
                            + "\" (registered: "
                            + registeredPipelineList() + ")");
    for (const auto &[key, value] : p.params) {
        const ParamInfo *info = def->findParam(key);
        if (!info) {
            std::string msg = "unknown parameter \"" + key
                + "\" for pipeline \"" + p.name + "\"";
            if (def->params.empty()) {
                msg += " (it accepts no parameters)";
            } else {
                msg += " (accepted:";
                for (const auto &i : def->params)
                    msg += " " + i.key;
                msg += ")";
            }
            throw PipelineError(msg);
        }
        if (info->type != value.type)
            throw PipelineError(
                "parameter \"" + key + "\" of pipeline \"" + p.name
                + "\" must be a " + paramTypeName(info->type));
        if (value.type == ParamValue::Type::Number) {
            double d = value.num;
            if (d < info->minValue || d > info->maxValue) {
                char range[96];
                std::snprintf(range, sizeof(range),
                              "must be in [%g, %g]", info->minValue,
                              info->maxValue);
                throw PipelineError("parameter \"" + key
                                    + "\" of pipeline \"" + p.name
                                    + "\" " + range);
            }
            if (info->integral && std::nearbyint(d) != d)
                throw PipelineError("parameter \"" + key
                                    + "\" of pipeline \"" + p.name
                                    + "\" must be an integer");
        }
    }
    if (def->validate)
        def->validate(p);
}

} // namespace prophet::sim
