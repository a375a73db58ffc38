#include "driver/spec.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/checksum.hh"
#include "common/log.hh"
#include "sim/energy.hh"
#include "sim/reports.hh"
#include "sim/runner.hh"
#include "workloads/registry.hh"

namespace prophet::driver
{

namespace
{

[[noreturn]] void
specFail(const std::string &msg)
{
    throw SpecError("spec: " + msg);
}

/**
 * A non-negative integer field (JSON numbers are doubles), bounded
 * by @p max: an out-of-range value must fail loudly, never wrap or
 * truncate into a silently different experiment.
 */
std::size_t
asCount(const json::Value &v, const char *key,
        double max = 9007199254740992.0 /* 2^53 */)
{
    if (!v.isNumber())
        specFail(std::string("\"") + key + "\" must be a number");
    double d = v.asNumber();
    if (d < 0 || std::nearbyint(d) != d)
        specFail(std::string("\"") + key
                 + "\" must be a non-negative integer");
    if (d > max)
        specFail(std::string("\"") + key + "\" is out of range");
    return static_cast<std::size_t>(d);
}

std::vector<std::string>
asStringList(const json::Value &v, const char *key)
{
    std::vector<std::string> out;
    if (!v.isArray())
        specFail(std::string("\"") + key
                 + "\" must be an array of strings");
    for (const auto &elem : v.asArray()) {
        if (!elem.isString())
            specFail(std::string("\"") + key
                     + "\" must be an array of strings");
        out.push_back(elem.asString());
    }
    return out;
}

void
rejectUnknownKeys(const json::Value &obj,
                  const std::vector<std::string> &known,
                  const char *where)
{
    for (const auto &[key, value] : obj.asObject()) {
        (void)value;
        if (std::find(known.begin(), known.end(), key) == known.end())
            specFail(std::string("unknown key \"") + key + "\" in "
                     + where);
    }
}

std::vector<std::string>
expandWorkloads(const std::vector<std::string> &raw)
{
    // First mention wins, duplicates collapse: "[@spec, mcf]" must
    // not simulate (and report) mcf's jobs twice.
    std::vector<std::string> out;
    auto add = [&out](const std::string &w) {
        if (std::find(out.begin(), out.end(), w) == out.end())
            out.push_back(w);
    };
    for (const auto &w : raw) {
        if (w == "@spec") {
            for (const auto &l : workloads::specWorkloads())
                add(l);
        } else if (w == "@graph") {
            for (const auto &l : workloads::graphWorkloads())
                add(l);
        } else if (w == "@gcc") {
            for (const auto &l : workloads::gccInputs())
                add(l);
        } else if (!w.empty() && w[0] == '@') {
            specFail("unknown workload alias \"" + w
                     + "\" (known: @spec @graph @gcc)");
        } else if (!workloads::isKnown(w)) {
            specFail("unknown workload \"" + w + "\"");
        } else {
            add(w);
        }
    }
    if (out.empty())
        specFail("\"workloads\" must name at least one workload");
    return out;
}

sim::ParamValue
paramFromJson(const json::Value &v, const std::string &key,
              const std::string &pipeline)
{
    if (v.isNumber())
        return sim::ParamValue::makeNumber(v.asNumber());
    if (v.isBool())
        return sim::ParamValue::makeBool(v.asBool());
    if (v.isString())
        return sim::ParamValue::makeString(v.asString());
    if (v.isArray()) {
        std::vector<std::string> list;
        for (const auto &elem : v.asArray()) {
            if (!elem.isString())
                specFail("parameter \"" + key + "\" of pipeline \""
                         + pipeline
                         + "\" must be an array of strings");
            list.push_back(elem.asString());
        }
        return sim::ParamValue::makeList(std::move(list));
    }
    specFail("parameter \"" + key + "\" of pipeline \"" + pipeline
             + "\" must be a number, boolean, string, or array of "
               "strings");
}

/**
 * A pipeline element: either a registered name, or an object with
 * parameter overrides and an optional display label. Every name,
 * parameter key, parameter type, and parameter value is checked
 * against the pipeline registry here, at parse time.
 */
sim::PipelineInstance
parsePipeline(const json::Value &v)
{
    sim::PipelineInstance inst;
    if (v.isString()) {
        inst.name = v.asString();
    } else if (v.isObject()) {
        const json::Value *name = v.find("name");
        if (!name || !name->isString())
            specFail("each pipeline object needs a string \"name\"");
        inst.name = name->asString();
        for (const auto &[key, value] : v.asObject()) {
            if (key == "name")
                continue;
            if (key == "label") {
                if (!value.isString() || value.asString().empty())
                    specFail("pipeline \"label\" must be a "
                             "non-empty string");
                inst.label = value.asString();
                continue;
            }
            inst.params.emplace(key,
                                paramFromJson(value, key, inst.name));
        }
    } else {
        specFail("each pipeline must be a name or an object with a "
                 "\"name\"");
    }
    try {
        sim::validatePipeline(inst);
    } catch (const sim::PipelineError &e) {
        specFail(e.what());
    }
    return inst;
}

/**
 * The "sweep" axis: cross-product every pipeline with every value of
 * one parameter. Each product gets a derived label so columns stay
 * distinguishable.
 */
std::vector<sim::PipelineInstance>
expandSweep(const json::Value &v,
            const std::vector<sim::PipelineInstance> &pipelines)
{
    if (!v.isObject())
        specFail("\"sweep\" must be an object");
    rejectUnknownKeys(v, {"param", "values"}, "sweep");
    const json::Value *param = v.find("param");
    if (!param || !param->isString())
        specFail("\"sweep\" needs a string \"param\"");
    const json::Value *values = v.find("values");
    if (!values || !values->isArray() || values->asArray().empty())
        specFail("\"sweep\" needs a non-empty \"values\" array");

    const std::string &key = param->asString();
    std::vector<sim::PipelineInstance> expanded;
    for (const auto &inst : pipelines) {
        // The registry entry exists — parsePipeline validated it.
        const sim::PipelineDef *def = sim::findPipeline(inst.name);
        if (!def->findParam(key))
            specFail("sweep parameter \"" + key
                     + "\" is not accepted by pipeline \""
                     + inst.name + "\"");
        if (inst.params.count(key))
            specFail("sweep parameter \"" + key
                     + "\" is already set on pipeline \"" + inst.name
                     + "\"");
        for (const auto &value : values->asArray()) {
            sim::PipelineInstance point = inst;
            sim::ParamValue pv = paramFromJson(value, key, inst.name);
            point.label = inst.resultName() + " " + key + "="
                + pv.display();
            point.params[key] = std::move(pv);
            try {
                sim::validatePipeline(point);
            } catch (const sim::PipelineError &e) {
                specFail(e.what());
            }
            expanded.push_back(std::move(point));
        }
    }
    return expanded;
}

/**
 * Canonical JSON of one pipeline instance. Plain instances stay the
 * bare name (so pre-registry result hashes are unchanged); everything
 * else becomes the object form with parameters in sorted key order.
 * The result hash excludes the label — it names a column, it cannot
 * change a number.
 */
json::Value
pipelineToJson(const sim::PipelineInstance &p, bool with_label)
{
    if (p.params.empty() && (p.label.empty() || !with_label))
        return json::Value(p.name);
    json::Value obj = json::Value::makeObject();
    obj.set("name", json::Value(p.name));
    if (with_label && !p.label.empty())
        obj.set("label", json::Value(p.label));
    for (const auto &[key, v] : p.params) {
        switch (v.type) {
          case sim::ParamValue::Type::Number:
            obj.set(key, json::Value(v.num));
            break;
          case sim::ParamValue::Type::Bool:
            obj.set(key, json::Value(v.flag));
            break;
          case sim::ParamValue::Type::String:
            obj.set(key, json::Value(v.str));
            break;
          case sim::ParamValue::Type::StringList: {
            json::Value arr = json::Value::makeArray();
            for (const auto &s : v.list)
                arr.push(json::Value(s));
            obj.set(key, std::move(arr));
            break;
          }
        }
    }
    return obj;
}

json::Value
pipelinesToJson(const std::vector<sim::PipelineInstance> &pipelines,
                bool with_labels)
{
    json::Value arr = json::Value::makeArray();
    for (const auto &p : pipelines)
        arr.push(pipelineToJson(p, with_labels));
    return arr;
}

/** Every sink kind with its one spelling, in the spec, the serve
 *  daemon's result frames and the client alike. */
constexpr std::pair<SinkSpec::Kind, const char *> kSinkKinds[] = {
    {SinkSpec::Kind::Table, "table"},
    {SinkSpec::Kind::JsonFile, "json"},
    {SinkSpec::Kind::CsvFile, "csv"},
};

SinkSpec
parseSink(const json::Value &v)
{
    if (!v.isObject())
        specFail("each sink must be an object");
    rejectUnknownKeys(v, {"type", "path"}, "sink");
    const json::Value *type = v.find("type");
    if (!type || !type->isString())
        specFail("sink needs a string \"type\"");
    SinkSpec s;
    const std::string &t = type->asString();
    if (!parseSinkKind(t, s.kind)) {
        std::string known;
        for (const auto &[kind, name] : kSinkKinds)
            known += (known.empty() ? "" : " ") + std::string(name);
        specFail("unknown sink type \"" + t + "\" (known: " + known
                 + ")");
    }
    if (const json::Value *path = v.find("path")) {
        if (!path->isString())
            specFail("sink \"path\" must be a string");
        s.path = path->asString();
    }
    if (s.kind != SinkSpec::Kind::Table && s.path.empty())
        specFail("sink type \"" + t + "\" needs a \"path\"");
    return s;
}

/**
 * The "sampling" object: sampled fast-mode execution knobs. Every
 * value is validated here at parse time — a schedule the simulator
 * would have to clamp (zero-record windows, a window longer than its
 * interval) is a spec error, not a silent reinterpretation.
 */
sim::SamplingConfig
parseSampling(const json::Value &v)
{
    if (!v.isObject())
        specFail("\"sampling\" must be an object");
    rejectUnknownKeys(v,
                      {"warmup_records", "window_records",
                       "interval_records", "offset"},
                      "sampling");
    sim::SamplingConfig s;
    s.enabled = true;
    if (const json::Value *w = v.find("warmup_records"))
        s.warmupRecords = asCount(*w, "warmup_records");
    if (const json::Value *w = v.find("window_records")) {
        s.windowRecords = asCount(*w, "window_records");
        if (s.windowRecords == 0)
            specFail("sampling \"window_records\" must be at "
                     "least 1");
    }
    if (const json::Value *w = v.find("interval_records")) {
        s.intervalRecords = asCount(*w, "interval_records");
        if (s.intervalRecords == 0)
            specFail("sampling \"interval_records\" must be at "
                     "least 1");
    }
    if (s.intervalRecords < s.windowRecords)
        specFail("sampling \"interval_records\" must be >= "
                 "\"window_records\" (one window per interval)");
    if (const json::Value *w = v.find("offset"))
        s.offset = asCount(*w, "offset");
    return s;
}

/** Canonical JSON of an enabled sampling config (every knob). */
json::Value
samplingToJson(const sim::SamplingConfig &s)
{
    json::Value obj = json::Value::makeObject();
    obj.set("warmup_records", json::Value(s.warmupRecords));
    obj.set("window_records", json::Value(s.windowRecords));
    obj.set("interval_records", json::Value(s.intervalRecords));
    obj.set("offset", json::Value(s.offset));
    return obj;
}

} // anonymous namespace

const char *
sinkKindName(SinkSpec::Kind kind)
{
    for (const auto &[k, name] : kSinkKinds)
        if (k == kind)
            return name;
    prophet_panic("unhandled sink kind");
}

bool
parseSinkKind(const std::string &name, SinkSpec::Kind &kind)
{
    for (const auto &[k, n] : kSinkKinds) {
        if (name == n) {
            kind = k;
            return true;
        }
    }
    return false;
}

const std::vector<MetricDef> &
metricTable()
{
    using sim::RunStats;
    using sim::Runner;
    static const std::vector<MetricDef> table = {
        {"speedup", "Performance Speedup",
         [](Runner &r, const std::string &w, const RunStats &s) {
             return r.speedup(w, s);
         }},
        {"traffic", "Normalized DRAM Traffic",
         [](Runner &r, const std::string &w, const RunStats &s) {
             return r.trafficNorm(w, s);
         }},
        {"coverage", "Prefetching Coverage",
         [](Runner &r, const std::string &w, const RunStats &s) {
             return r.coverage(w, s);
         }},
        {"accuracy", "Prefetching Accuracy",
         [](Runner &, const std::string &, const RunStats &s) {
             return s.prefetchAccuracy();
         }},
        {"ipc", "IPC",
         [](Runner &, const std::string &, const RunStats &s) {
             return s.ipc;
         }},
        {"meta_lines", "Off-chip Metadata Lines",
         [](Runner &, const std::string &, const RunStats &s) {
             return static_cast<double>(s.offchipMeta.total());
         }},
        {"energy", "Memory-Hierarchy Energy (uJ)",
         [](Runner &, const std::string &, const RunStats &s) {
             return sim::memoryEnergy(s).totalNj() / 1000.0;
         }},
    };
    return table;
}

const MetricDef *
findMetric(const std::string &name)
{
    for (const MetricDef &m : metricTable())
        if (name == m.name)
            return &m;
    return nullptr;
}

const std::vector<ReportDef> &
reportTable()
{
    using sim::Runner;
    using Each = sim::ForEachWorkload;
    // The config keys change Table 1 and Figure 6's profiling run.
    static const std::vector<ReportDef> table = {
        {"system-config",
         {"l1", "dram_channels", "warmup_records"},
         [](const ExperimentSpec &s, Runner &, const Each &) {
             return sim::systemConfigReport(s.baseConfig());
         }},
        {"storage", {},
         [](const ExperimentSpec &, Runner &, const Each &) {
             return sim::storageReport();
         }},
        {"pattern-conf",
         {"workloads", "records", "threads", "trace_cache"},
         [](const ExperimentSpec &s, Runner &r, const Each &each) {
             return sim::patternConfReport(r, each, s.workloads);
         }},
        {"pc-accuracy",
         {"workloads", "records", "threads", "trace_cache", "l1",
          "dram_channels", "warmup_records"},
         [](const ExperimentSpec &s, Runner &r, const Each &each) {
             return sim::pcAccuracyReport(r, each, s.workloads);
         }},
        {"markov-targets",
         {"workloads", "records", "threads", "trace_cache"},
         [](const ExperimentSpec &s, Runner &r, const Each &each) {
             return sim::markovTargetsReport(r, each, s.workloads);
         }},
    };
    return table;
}

const ReportDef *
findReport(const std::string &name)
{
    for (const ReportDef &r : reportTable())
        if (name == r.name)
            return &r;
    return nullptr;
}

bool
ReportDef::takes(const std::string &key) const
{
    return std::find(keys.begin(), keys.end(), key) != keys.end();
}

ExperimentSpec
ExperimentSpec::fromJson(const json::Value &root)
{
    if (!root.isObject())
        specFail("top-level value must be an object");
    rejectUnknownKeys(root,
                      {"name", "report", "workloads", "pipelines",
                       "sweep", "metrics", "records", "threads", "l1",
                       "dram_channels", "warmup_records", "sampling",
                       "trace_cache", "keep_going", "deadline_s",
                       "sinks"},
                      "spec");

    ExperimentSpec spec;
    if (const json::Value *v = root.find("name")) {
        if (!v->isString())
            specFail("\"name\" must be a string");
        spec.name = v->asString();
    }

    if (const json::Value *v = root.find("report")) {
        if (!v->isString())
            specFail("\"report\" must be a string");
        spec.report = findReport(v->asString());
        if (!spec.report) {
            std::string known;
            for (const ReportDef &r : reportTable())
                known += (known.empty() ? "" : " ") + std::string(r.name);
            specFail("unknown report \"" + v->asString() + "\" (known: "
                     + known + ")");
        }
        // A report runs no job matrix, and its text depends only on
        // its own keys: any other would be silently ignored, so it is
        // an error.
        for (const auto &[key, value] : root.asObject()) {
            (void)value;
            if (key != "name" && key != "report"
                && !spec.report->takes(key))
                specFail("\"" + key + "\" has no effect in a \""
                         + spec.report->name + "\" report spec");
        }
    }

    const json::Value *wl = root.find("workloads");
    if (wl)
        spec.workloads =
            expandWorkloads(asStringList(*wl, "workloads"));
    else if (!spec.report || spec.report->takes("workloads"))
        specFail("missing required key \"workloads\"");

    const json::Value *pl = root.find("pipelines");
    if (pl) {
        if (!pl->isArray())
            specFail("\"pipelines\" must be an array");
        for (const auto &elem : pl->asArray())
            spec.pipelines.push_back(parsePipeline(elem));
        if (spec.pipelines.empty())
            specFail("\"pipelines\" must name at least one pipeline");
    } else if (!spec.report) {
        specFail("missing required key \"pipelines\"");
    }

    if (const json::Value *v = root.find("sweep")) {
        if (!pl)
            specFail("\"sweep\" needs a \"pipelines\" list to "
                     "expand");
        spec.pipelines = expandSweep(*v, spec.pipelines);
    }

    // Results are keyed by (workload, pipeline label): two instances
    // reporting under one key would be indistinguishable downstream.
    for (std::size_t i = 0; i < spec.pipelines.size(); ++i)
        for (std::size_t j = i + 1; j < spec.pipelines.size(); ++j)
            if (spec.pipelines[i].resultName()
                == spec.pipelines[j].resultName())
                specFail("duplicate pipeline \""
                         + spec.pipelines[i].resultName()
                         + "\" (give each instance a distinct "
                           "\"label\")");

    if (const json::Value *v = root.find("metrics")) {
        spec.metrics = asStringList(*v, "metrics");
        if (spec.metrics.empty())
            specFail("\"metrics\" must name at least one metric");
        for (const auto &m : spec.metrics)
            if (!findMetric(m))
                specFail("unknown metric \"" + m + "\"");
    }

    if (const json::Value *v = root.find("records"))
        spec.records = asCount(*v, "records");
    if (const json::Value *v = root.find("threads"))
        spec.threads = static_cast<unsigned>(
            asCount(*v, "threads", 65536.0));
    if (const json::Value *v = root.find("l1")) {
        if (!v->isString())
            specFail("\"l1\" must be a string");
        spec.l1 = v->asString();
        if (spec.l1 != "stride" && spec.l1 != "ipcp"
            && spec.l1 != "none")
            specFail("\"l1\" must be stride, ipcp or none");
    }
    if (const json::Value *v = root.find("dram_channels")) {
        spec.dramChannels = static_cast<unsigned>(
            asCount(*v, "dram_channels", 1024.0));
        if (spec.dramChannels == 0)
            specFail("\"dram_channels\" must be at least 1");
    }
    if (const json::Value *v = root.find("warmup_records"))
        spec.warmupRecords = asCount(*v, "warmup_records");
    if (const json::Value *v = root.find("sampling"))
        spec.sampling = parseSampling(*v);
    if (const json::Value *v = root.find("trace_cache")) {
        if (!v->isBool())
            specFail("\"trace_cache\" must be a boolean");
        spec.traceCache = v->asBool();
    }
    if (const json::Value *v = root.find("keep_going")) {
        if (!v->isBool())
            specFail("\"keep_going\" must be a boolean");
        spec.keepGoing = v->asBool();
    }
    if (const json::Value *v = root.find("deadline_s")) {
        // Fractional deadlines are legal (sub-second tests); zero or
        // negative would silently disable the deadline the spec
        // asked for, so they are errors.
        if (!v->isNumber() || !(v->asNumber() > 0.0)
            || !(v->asNumber() < 1e9))
            specFail("\"deadline_s\" must be a positive number of "
                     "seconds");
        spec.deadlineS = v->asNumber();
    }
    if (const json::Value *v = root.find("sinks")) {
        if (!v->isArray())
            specFail("\"sinks\" must be an array");
        for (const auto &elem : v->asArray())
            spec.sinks.push_back(parseSink(elem));
    }
    return spec;
}

ExperimentSpec
ExperimentSpec::fromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        specFail("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    json::Value root;
    std::string err;
    if (!json::parse(buf.str(), root, &err))
        specFail(path + ": " + err);
    try {
        return fromJson(root);
    } catch (const SpecError &e) {
        throw SpecError(path + ": " + e.what());
    }
}

json::Value
ExperimentSpec::toJson() const
{
    json::Value root = json::Value::makeObject();
    root.set("name", json::Value(name));
    if (report)
        root.set("report", json::Value(report->name));
    auto list = [](const std::vector<std::string> &v) {
        json::Value arr = json::Value::makeArray();
        for (const auto &s : v)
            arr.push(json::Value(s));
        return arr;
    };
    root.set("workloads", list(workloads));
    root.set("pipelines", pipelinesToJson(pipelines, true));
    root.set("metrics", list(metrics));
    root.set("records", json::Value(records));
    root.set("threads", json::Value(static_cast<double>(threads)));
    root.set("l1", json::Value(l1));
    root.set("dram_channels",
             json::Value(static_cast<double>(dramChannels)));
    if (warmupRecords != kWarmupDefault)
        root.set("warmup_records", json::Value(warmupRecords));
    // Emitted only when enabled: pre-sampling specs keep their
    // canonical form byte-identical.
    if (sampling.enabled)
        root.set("sampling", samplingToJson(sampling));
    root.set("trace_cache", json::Value(traceCache));
    // Emitted only when set: the default leaves the canonical form
    // (and thus archived spec dumps) byte-identical to pre-keep_going
    // documents.
    if (keepGoing)
        root.set("keep_going", json::Value(true));
    if (deadlineS > 0.0)
        root.set("deadline_s", json::Value(deadlineS));
    json::Value sink_arr = json::Value::makeArray();
    for (const auto &s : sinks) {
        json::Value obj = json::Value::makeObject();
        obj.set("type", json::Value(sinkKindName(s.kind)));
        if (!s.path.empty())
            obj.set("path", json::Value(s.path));
        sink_arr.push(std::move(obj));
    }
    root.set("sinks", std::move(sink_arr));
    return root;
}

std::uint64_t
ExperimentSpec::resultHash(std::size_t effective_records) const
{
    json::Value root = json::Value::makeObject();
    auto list = [](const std::vector<std::string> &v) {
        json::Value arr = json::Value::makeArray();
        for (const auto &s : v)
            arr.push(json::Value(s));
        return arr;
    };
    if (report)
        root.set("report", json::Value(report->name));
    root.set("workloads", list(workloads));
    root.set("pipelines", pipelinesToJson(pipelines, false));
    root.set("metrics", list(metrics));
    root.set("records", json::Value(effective_records));
    root.set("l1", json::Value(l1));
    root.set("dram_channels",
             json::Value(static_cast<double>(dramChannels)));
    if (warmupRecords != kWarmupDefault)
        root.set("warmup_records", json::Value(warmupRecords));
    // Sampling changes every reported number: two runs differing
    // only in schedule must never compare as bit-identical.
    if (sampling.enabled)
        root.set("sampling", samplingToJson(sampling));
    // FNV-1a 64 over the canonical compact dump: two spec files that
    // expand to the same experiment hash identically, regardless of
    // aliases, comments or formatting.
    const std::string text = json::dump(root);
    return fnv1a64(text.data(), text.size());
}

sim::SystemConfig
ExperimentSpec::baseConfig() const
{
    sim::SystemConfig cfg = sim::SystemConfig::table1();
    if (l1 == "ipcp")
        cfg.l1Pf = sim::L1PfKind::Ipcp;
    else if (l1 == "none")
        cfg.l1Pf = sim::L1PfKind::None;
    else
        cfg.l1Pf = sim::L1PfKind::Stride;
    cfg.hier.dram.channels = dramChannels;
    if (warmupRecords != kWarmupDefault)
        cfg.warmupRecords = warmupRecords;
    cfg.sampling = sampling;
    return cfg;
}

} // namespace prophet::driver
