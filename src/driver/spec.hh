/**
 * @file
 * The declarative experiment spec: a JSON file names the workloads,
 * the pipelines to compare, the system-config overrides, the metrics
 * to report, and the output sinks. The driver expands a spec into
 * sweep jobs; every checked-in spec under specs/ reproduces one of the
 * paper's figures through this schema.
 *
 * Schema (all keys optional except "workloads" and "pipelines"):
 *
 *   {
 *     "name": "fig10",               // experiment label
 *     "workloads": ["@spec"],        // names or @spec/@graph/@gcc
 *     "pipelines": ["rpg2", "triangel",
 *       // an element may also be an object with parameter
 *       // overrides and a display label; names, parameters and
 *       // their types come from the pipeline registry
 *       // (sim/pipelines.hh, `prophet list-pipelines`)
 *       {"name": "triage", "degree": 4, "label": "triage-d4"},
 *       {"name": "prophet", "features": ["replacement"]}],
 *     "sweep": {                     // optional knob axis: every
 *       "param": "el_acc",           // pipeline is instantiated
 *       "values": [0.05, 0.15, 0.25] // once per value
 *     },
 *     "metrics": ["speedup"],        // speedup traffic coverage
 *                                    // accuracy ipc meta_lines
 *                                    // energy
 *     "records": 0,                  // trace-length override
 *     "threads": 1,                  // 0 = hardware concurrency
 *     "l1": "stride",                // stride | ipcp | none
 *     "dram_channels": 1,
 *     "warmup_records": 200000,
 *     "sampling": {                  // sampled fast-mode execution
 *       "warmup_records": 100000,    // functional warm before window
 *       "window_records": 50000,     // detailed records per window
 *       "interval_records": 1000000, // schedule period (>= window)
 *       "offset": 0                  // shift the whole schedule
 *     },
 *     "trace_cache": true,           // consult the on-disk cache
 *     "deadline_s": 120.5,           // per-job deadline, seconds
 *     "sinks": [{"type": "table"},   // table | json | csv
 *               {"type": "json", "path": "out.json"}]
 *   }
 *
 * A spec may instead name a report from the report table
 * (reportTable(): system-config, storage, pattern-conf, pc-accuracy,
 * markov-targets), which prints one paper artifact instead of running
 * a job matrix: {"name": "table1", "report": "system-config"}. A
 * report takes only the keys its text depends on (ReportDef::keys):
 * one that reads traces needs "workloads" and accepts "records",
 * "threads" and "trace_cache"; system-config and pc-accuracy accept
 * the configuration keys "l1", "dram_channels" and "warmup_records".
 * Any other key is an error.
 *
 * Unknown keys anywhere are errors — a typoed knob, pipeline name,
 * or pipeline parameter must not silently run the default
 * experiment.
 */

#ifndef PROPHET_DRIVER_SPEC_HH
#define PROPHET_DRIVER_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "driver/json.hh"
#include "sim/pipelines.hh"
#include "sim/reports.hh"
#include "sim/system_config.hh"

namespace prophet::driver
{

/**
 * A malformed or invalid experiment spec. Part of the prophet::Error
 * taxonomy (code SpecParse), so the CLI maps it onto the documented
 * spec-error exit code without string matching.
 */
class SpecError : public Error
{
  public:
    explicit SpecError(const std::string &message,
                       ErrorContext ctx = {})
        : Error(ErrorCode::SpecParse, message, std::move(ctx))
    {}
};

/** One output sink request. */
struct SinkSpec
{
    enum class Kind { Table, JsonFile, CsvFile };
    Kind kind = Kind::Table;
    std::string path; ///< required for JsonFile/CsvFile
};

/** A sink kind's one spelling: "table", "json" or "csv". */
const char *sinkKindName(SinkSpec::Kind kind);

/** The kind spelled @p name into @p kind; false for an unknown name. */
bool parseSinkKind(const std::string &name, SinkSpec::Kind &kind);

struct ReportDef;

/** The parsed, validated experiment description. */
struct ExperimentSpec
{
    std::string name = "experiment";

    /** The report the spec prints instead of a job matrix, or null. */
    const ReportDef *report = nullptr;

    std::vector<std::string> workloads; ///< aliases expanded
    /** Validated against the registry; the sweep axis expanded. */
    std::vector<sim::PipelineInstance> pipelines;
    std::vector<std::string> metrics{"speedup"};
    std::size_t records = 0;
    unsigned threads = 1;
    std::string l1 = "stride";
    unsigned dramChannels = 1;
    std::size_t warmupRecords = kWarmupDefault;

    /**
     * Sampled fast-mode execution (sampling.enabled == false when
     * the spec has no "sampling" key — a full run, the one-window
     * schedule).
     * Included in toJson()/resultHash() only when enabled, so
     * pre-sampling specs keep their hashes.
     */
    sim::SamplingConfig sampling{};

    bool traceCache = true;

    /**
     * Failure policy: true runs every job even after one fails (the
     * partial table marks failed cells and the CLI exits with the
     * partial-failure code); false (default) fails fast, cancelling
     * in-flight jobs. Excluded from resultHash — the policy cannot
     * change any number a completed job reports.
     */
    bool keepGoing = false;

    /**
     * Per-job deadline in seconds, below 1e9 (0 = none): a job
     * attempt still running past it is cancelled at its next poll
     * and recorded as a transient JobTimeout failure, eligible for
     * the retry path. The CLI's --job-timeout overrides it.
     * Excluded from resultHash like keep_going — a deadline can
     * fail a job, never change the numbers a completed job reports.
     */
    double deadlineS = 0.0;

    std::vector<SinkSpec> sinks; ///< empty = one table sink

    /** Sentinel: keep SystemConfig::table1()'s warmup. */
    static constexpr std::size_t kWarmupDefault =
        static_cast<std::size_t>(-1);

    /** Parse and validate a JSON document. Throws SpecError. */
    static ExperimentSpec fromJson(const json::Value &root);

    /** Parse a spec file (I/O errors also throw SpecError). */
    static ExperimentSpec fromFile(const std::string &path);

    /**
     * Canonical JSON form: every field, fully expanded and in fixed
     * key order, so the dump identifies the experiment's content
     * regardless of spelling, comments, or key order in the file.
     */
    json::Value toJson() const;

    /**
     * Identity of the experiment's *results*: hashes only the
     * fields that can change the numbers (workloads, pipelines,
     * metrics, records — as actually run, so CLI overrides count —
     * l1, dram_channels, warmup_records). Thread count, sinks, the
     * trace-cache switch and the display name are excluded: two
     * runs with equal resultHash are comparable bit for bit.
     */
    std::uint64_t resultHash(std::size_t effective_records) const;

    /** The base SystemConfig the overrides produce. */
    sim::SystemConfig baseConfig() const;
};

/**
 * One metric a spec can report: the name a spec uses, the title the
 * table sink prints above it, and how a job derives it from its
 * stats (speedup, traffic and coverage divide by the workload's
 * cached baseline).
 */
struct MetricDef
{
    const char *name;
    const char *title;
    double (*compute)(sim::Runner &runner, const std::string &workload,
                      const sim::RunStats &stats);
};

/** Every metric a spec can name, in documentation order. */
const std::vector<MetricDef> &metricTable();

/**
 * The metric named @p name, or nullptr when there is none (fromJson
 * rejects such a spec, so a parsed spec's names always resolve).
 */
const MetricDef *findMetric(const std::string &name);

/**
 * One paper artifact a spec can print instead of a job matrix: the
 * name a spec's "report" uses, the spec keys its text depends on
 * besides "name" and "report" (a report with "workloads" reads
 * traces and requires them), and how the run renders it. The text is
 * the run's one output, printed by the table sink.
 */
struct ReportDef
{
    const char *name;
    std::vector<std::string> keys;
    std::string (*render)(const ExperimentSpec &spec, sim::Runner &runner,
                          const sim::ForEachWorkload &each);

    /** Whether the report reads spec key @p key. */
    bool takes(const std::string &key) const;
};

/** Every report a spec can name, in documentation order. */
const std::vector<ReportDef> &reportTable();

/** The report named @p name, or nullptr when there is none. */
const ReportDef *findReport(const std::string &name);

} // namespace prophet::driver

#endif // PROPHET_DRIVER_SPEC_HH
