/**
 * @file
 * Result sinks for the experiment driver. A sink renders a finished
 * run to bytes — every (workload x pipeline) result in deterministic
 * spec order, never completion order, plus run metadata — so its
 * output is bit-identical across thread counts and across callers
 * (`prophet run`, the serve daemon, the golden tests).
 *
 *   table — the human-readable per-metric tables with a Geomean row;
 *   json  — one machine-readable document with full RunStats per
 *           job plus run metadata, for perf tracking;
 *   csv   — one row per job, for spreadsheets.
 *
 * Rendering and writing are separate steps: the driver renders,
 * and whoever holds the bytes (the CLI, the serve client) writes
 * them with writeSinkOutput.
 */

#ifndef PROPHET_DRIVER_SINK_HH
#define PROPHET_DRIVER_SINK_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver/spec.hh"
#include "sim/system.hh"

namespace prophet::driver
{

/** Metadata about one driver run, rendered by every file sink. */
struct RunMeta
{
    std::string specName;
    std::uint64_t specHash = 0;
    std::size_t records = 0;   ///< trace-length override (0=default)
    unsigned threads = 1;
    double wallSeconds = 0.0;
    std::string timestamp;     ///< ISO-8601 UTC
    std::uint64_t traceCacheHits = 0;
    std::uint64_t traceCacheMisses = 0;

    /**
     * Cumulative phase wall time across all jobs (summed over
     * workers, so on N threads these can exceed wallSeconds). Pulled
     * from the "phase.trace_load_ns" / "phase.warmup_ns" /
     * "phase.simulate_ns" registry histograms at the end of the run.
     */
    double traceLoadSeconds = 0.0;
    double simulateSeconds = 0.0;
};

/** One (workload, pipeline) job: its stats, or why it failed. */
struct JobResult
{
    std::string workload;
    std::string pipeline;
    sim::RunStats stats; ///< zeroed when !ok
    /** (metric name, value) in the spec's metric order; empty on
     *  failure. */
    std::vector<std::pair<std::string, double>> metrics;

    /** False when the job failed (or was skipped by fail-fast). */
    bool ok = true;

    /** Failure classification (Ok when the job succeeded). */
    ErrorCode errorCode = ErrorCode::Ok;
    std::string errorMessage;

    /** Simulation attempts (> 1 after transient-error retries). */
    unsigned attempts = 1;

    /**
     * Replayed from the resume journal rather than simulated. The
     * sinks never render it (a resumed run's output must stay
     * byte-identical to a from-scratch run); metrics.json's "jobs"
     * section reports it for observability.
     */
    bool resumed = false;

    /**
     * Wall time of this job's final attempt, including retry backoff
     * sleeps. Diagnostics only (metrics.json "jobs" section): the
     * sinks never render it, so their outputs stay deterministic.
     */
    double seconds = 0.0;
};

/** One rendered sink: what the spec asked for, and its bytes. */
struct SinkOutput
{
    SinkSpec sink;
    std::string bytes;
};

/**
 * Render @p sink for a finished run. Pure: it touches no file or
 * stream, so every caller gets the same bytes. @p results are in
 * spec order (workload-major, pipeline-minor).
 */
std::string renderSink(const SinkSpec &sink, const ExperimentSpec &spec,
                       const RunMeta &meta,
                       const std::vector<JobResult> &results);

/**
 * The table sink's failure summary: "failures: N of M jobs" and one
 * line per failed job with its error. Empty when every job completed.
 */
std::string renderFailures(const std::vector<JobResult> &results);

/**
 * Put rendered bytes where their sink belongs: a table to stdout, a
 * json or csv sink to its path with a "<kind> sink: wrote PATH" note
 * on stderr. Returns false, after a stderr note, when the file cannot
 * be written, so the caller can exit nonzero instead of silently
 * dropping archived results.
 */
bool writeSinkOutput(const SinkOutput &out);

} // namespace prophet::driver

#endif // PROPHET_DRIVER_SINK_HH
