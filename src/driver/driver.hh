/**
 * @file
 * The experiment driver: expands a declarative ExperimentSpec into
 * (workload x pipeline) jobs, runs them as one SweepEngine fan-out
 * across its workers — each job runs its pipeline and derives the
 * requested metrics, sharing the Runner's once-computed traces,
 * baselines and profiles — and renders the spec's sinks to bytes, in
 * spec order, so output is independent of scheduling. A report spec
 * renders its report instead, each workload's pass one such job, and
 * both end in the same metadata and observability files. The `prophet`
 * CLI, the serve daemon, and the end-to-end and golden tests all take
 * this one path; the caller decides where the rendered bytes go
 * (driver/sink.hh writeSinkOutput, or a daemon response frame).
 */

#ifndef PROPHET_DRIVER_DRIVER_HH
#define PROPHET_DRIVER_DRIVER_HH

#include <string>
#include <vector>

#include "driver/sink.hh"
#include "driver/spec.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "trace/trace_cache.hh"

namespace prophet::driver
{

/** CLI-level overrides applied on top of the spec. */
struct DriverOptions
{
    static constexpr unsigned kNoThreads = ~0u;
    static constexpr std::size_t kNoRecords =
        static_cast<std::size_t>(-1);

    unsigned threads = kNoThreads;      ///< kNoThreads = spec value
    std::size_t records = kNoRecords;   ///< kNoRecords = spec value

    /** False turns the on-disk trace cache off (--no-trace-cache);
     *  true follows the spec's "trace_cache". */
    bool traceCache = true;
    std::string traceCacheDir; ///< empty = ./.prophet-trace-cache

    /** -1 spec value, 0 fail-fast, 1 keep-going (--keep-going). */
    int keepGoing = -1;

    // ---- crash-safe sweeps (all default-off: a run with none of
    // these set produces byte-identical outputs to one without) ----

    /**
     * Path of the result journal: `prophet run --resume` sets
     * <spec>.journal, and a library caller may name any file. Empty
     * disables checkpointing. When set, entries valid at startup
     * replay — those jobs are not re-simulated — and every completed
     * job is appended, so an interrupted run continues where it
     * stopped. A journal written for a different spec resultHash is
     * refused with SpecError.
     */
    std::string journalPath;

    /**
     * Per-job deadline in seconds, below 1e9. < 0 defers to the
     * spec's "deadline_s"; 0 forces the deadline off; > 0 overrides
     * (--job-timeout). Each attempt's cancellation token expires
     * that long after the attempt starts; an expired attempt is
     * cancelled at its next poll and recorded as a transient
     * JobTimeout failure (retried once).
     */
    double jobTimeoutS = -1.0;

    /**
     * External shutdown token (the CLI's SIGINT/SIGTERM handler,
     * or a daemon request's disconnect and drain). When it fires
     * mid-run: in-flight jobs unwind at their next poll, queued jobs
     * never start, the journal keeps what completed, and run() still
     * returns its (partial) report with rendered sinks. Null = no
     * external shutdown. Non-const: the run's fail-fast policy
     * shares the token, so a first failure may fire it too.
     */
    CancellationToken *shutdown = nullptr;

    // ---- resident-server execution (the serve daemon) -------------

    /**
     * External resident Runner to execute against instead of
     * constructing a per-run one. The caller owns its lifetime,
     * trace-cache attachment, and base configuration (which must
     * match the spec's baseConfig()/records — the serve daemon keys
     * its runner pool on exactly those fields). The driver never
     * attaches a trace cache to it and never releases its traces,
     * and it needs no cancellation wiring: every job polls a
     * thread-local token chained to its own run's token, whichever
     * Runner it uses.
     */
    sim::Runner *runner = nullptr;

    /**
     * Reset the process-wide metrics registry at the start of run()
     * — the historical CLI behavior, so a --metrics-out document
     * never carries a previous run's counts. The serve daemon turns
     * this off: its serve.* counters, request-latency histogram, and
     * resident-cache counters must survive across requests (the
     * `health` request reports cumulative daemon-lifetime values).
     */
    bool resetMetrics = true;

    // ---- observability (all default-off: a run with none of these
    // set produces byte-identical outputs to a build without them) --

    /** --progress: live jobs/records-per-second/ETA line on stderr. */
    bool progress = false;

    /** --metrics-out FILE: write the run's metrics JSON report. */
    std::string metricsOut;

    /** --trace-out FILE: write a Chrome/Perfetto span trace. */
    std::string traceOut;
};

/** Everything a run produced. */
struct ExperimentReport
{
    RunMeta meta;
    std::vector<JobResult> results; ///< workload-major spec order

    /**
     * Every spec sink rendered, in spec order (one table when the
     * spec names none). run() writes none of them.
     */
    std::vector<SinkOutput> outputs;

    /**
     * False when an output file failed to write: --metrics-out or
     * --trace-out inside run(), or a sink the caller wrote.
     */
    bool sinksOk = true;

    /** Jobs that failed or were skipped by fail-fast. */
    std::size_t failedJobs = 0;

    /** Jobs replayed from the resume journal, not simulated. */
    std::size_t resumedJobs = 0;

    /** The external shutdown token fired during the run. */
    bool interrupted = false;

    /** True when every job completed and every output wrote. */
    bool ok() const { return failedJobs == 0 && sinksOk; }
};

/** Runs one spec. Construct, then run() once. */
class ExperimentDriver
{
  public:
    explicit ExperimentDriver(ExperimentSpec spec,
                              DriverOptions opts = {});

    /** Thread count after overrides (as SweepEngine resolves it). */
    unsigned effectiveThreads() const;

    /** Records override after CLI overrides. */
    std::size_t effectiveRecords() const;

    /** Whether the on-disk trace cache will be consulted. */
    bool traceCacheEnabled() const;

    /** Policy after overrides (true = keep going; reports fail fast). */
    bool keepGoingEnabled() const;

    /**
     * Expand, execute, and render the sinks into the report's
     * outputs. Results are deterministic for a given spec: identical
     * across thread counts and trace-cache states.
     */
    ExperimentReport run();

  private:
    /**
     * The spec's report as @p report's one output. Each workload's
     * pass is one job, named (workload, report), with the token,
     * deadline and retry of any job; the text needs every pass, so
     * the first failure cancels the rest and the output lists the
     * failures instead.
     */
    void runReport(sim::Runner &runner, sim::SweepEngine &engine,
                   CancellationToken &token, double deadline_s,
                   ExperimentReport &report);

    /**
     * The job matrix: every (workload x pipeline) job fanned out on
     * @p engine under the failure policy, the run's @p token and the
     * per-job deadline, with journal replay and bounded retry, into
     * @p report's results and failure counts.
     */
    void runJobs(sim::Runner &runner, sim::SweepEngine &engine,
                 CancellationToken &token, double deadline_s,
                 std::uint64_t result_hash, ExperimentReport &report);

    ExperimentSpec spec;
    DriverOptions opts;
};

/**
 * The documented process exit code a finished report maps onto —
 * shared by the `prophet run` CLI and the serve daemon's response
 * frames, so the two paths cannot disagree: 0 success, 5 partial
 * under keep-going, 4 runtime failure (including a failed sink),
 * 6 interrupted (the external shutdown token drained the run).
 */
int exitCodeForReport(const ExperimentReport &report, bool keepGoing);

} // namespace prophet::driver

#endif // PROPHET_DRIVER_DRIVER_HH
