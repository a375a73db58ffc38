/**
 * @file
 * The experiment driver: expands a declarative ExperimentSpec into
 * (workload x pipeline) SweepEngine jobs, runs them across the
 * thread pool, derives the requested metrics, and streams the
 * results — in spec order, so output is independent of scheduling —
 * to the spec's sinks. This is the layer the `prophet` CLI, the serve
 * daemon, and the end-to-end and golden tests drive.
 */

#ifndef PROPHET_DRIVER_DRIVER_HH
#define PROPHET_DRIVER_DRIVER_HH

#include <memory>
#include <vector>

#include "driver/sink.hh"
#include "driver/spec.hh"
#include "sim/runner.hh"
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
    int traceCache = -1;                ///< -1 spec, 0 off, 1 on
    std::string traceCacheDir;          ///< empty = default dir

    /** -1 spec value, 0 fail-fast, 1 keep-going (--keep-going). */
    int keepGoing = -1;

    /**
     * Per-job simulation attempts: a job failing with a *transient*
     * error class (isTransientError — trace I/O, cache lock) is
     * retried with backoff up to this many total tries. Permanent
     * errors never retry.
     */
    unsigned maxAttempts = 2;

    /** Base backoff before retry k is k * this (0 in tests). */
    unsigned retryBackoffMs = 50;

    // ---- crash-safe sweeps (all default-off: a run with none of
    // these set produces byte-identical outputs to one without) ----

    /**
     * Path of the result journal (--resume / --journal). Empty
     * disables checkpointing. When set, entries valid at startup
     * replay — those jobs are not re-simulated — and every completed
     * job is appended, so an interrupted run continues where it
     * stopped. A journal written for a different spec resultHash is
     * refused with SpecError.
     */
    std::string journalPath;

    /** fsync the journal after every append (--no-journal-fsync). */
    bool journalFsync = true;

    /**
     * Per-job watchdog deadline in seconds. < 0 defers to the
     * spec's "deadline_s"; 0 forces the watchdog off; > 0 overrides
     * (--job-timeout). An expired job is cancelled and recorded as
     * a transient JobTimeout failure (retried once by default).
     */
    double jobTimeoutS = -1.0;

    /**
     * External shutdown token (the CLI's SIGINT/SIGTERM handler
     * fires it). When it fires mid-run: in-flight jobs are
     * cancelled and drained, queued jobs never start, the journal
     * and sinks flush what completed, and run() still returns its
     * (partial) report. Null = no external shutdown. Non-const:
     * the run's fail-fast policy shares the token, so a first
     * failure may fire it too.
     */
    CancellationToken *shutdown = nullptr;

    // ---- resident-server execution (the serve daemon) -------------

    /**
     * External resident Runner to execute against instead of
     * constructing a per-run one. The caller owns its lifetime,
     * trace-cache attachment, and base configuration (which must
     * match the spec's baseConfig()/records — the serve daemon keys
     * its runner pool on exactly those fields). The driver never
     * calls setCancellation or setTraceCache on an external runner:
     * per-job cancellation rides the watchdog's thread-local tokens,
     * so concurrent requests sharing one Runner cannot clobber each
     * other's tokens (or leave a dangling one behind).
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

    /**
     * Ignore the spec's own sinks and deliver results only to
     * addSink() sinks. The serve daemon substitutes capturing sinks
     * (driver/sink.hh makeCapturingSink) so rendered output travels
     * back in the response frame and the daemon never writes files
     * in its own working directory on a client's behalf.
     */
    bool suppressSpecSinks = false;

    // ---- observability (all default-off: a run with none of these
    // set produces byte-identical outputs to a build without them) --

    /** --progress: live jobs/records-per-second/ETA line on stderr. */
    bool progress = false;

    /** --metrics-out FILE: write the run's metrics JSON report. */
    std::string metricsOut;

    /** --trace-out FILE: write a Chrome/Perfetto span trace. */
    std::string traceOut;
};

/** Everything a run produced, for callers beyond the sinks. */
struct ExperimentReport
{
    RunMeta meta;
    std::vector<JobResult> results; ///< workload-major spec order
    bool sinksOk = true; ///< every sink wrote its output successfully

    /** Jobs that failed or were skipped by fail-fast. */
    std::size_t failedJobs = 0;

    /** Jobs replayed from the resume journal, not simulated. */
    std::size_t resumedJobs = 0;

    /** The external shutdown token fired during the run. */
    bool interrupted = false;

    /** True when every job completed and every sink wrote. */
    bool ok() const { return failedJobs == 0 && sinksOk; }
};

/**
 * Runs one spec. Construct, optionally add extra sinks on top of the
 * spec's own, then run() once.
 */
class ExperimentDriver
{
  public:
    explicit ExperimentDriver(ExperimentSpec spec,
                              DriverOptions opts = {});

    /** A sink in addition to the spec's sinks (tests, CLI). */
    void addSink(std::unique_ptr<Sink> sink);

    /** Thread count after overrides (as SweepEngine resolves it). */
    unsigned effectiveThreads() const;

    /** Records override after CLI overrides. */
    std::size_t effectiveRecords() const;

    /** Whether the on-disk trace cache will be consulted. */
    bool traceCacheEnabled() const;

    /** Failure policy after overrides (true = keep going). */
    bool keepGoingEnabled() const;

    /**
     * Expand, execute, and deliver to sinks. Results are
     * deterministic for a given spec: identical across thread
     * counts and trace-cache states.
     */
    ExperimentReport run();

  private:
    ExperimentSpec spec;
    DriverOptions opts;
    std::vector<std::unique_ptr<Sink>> extraSinks;

    /**
     * Feed @p report's results, in spec order, to the spec's sinks
     * (unless suppressed) plus the extras, then finish each. False
     * when any sink failed to write.
     */
    bool deliver(const ExperimentReport &report);
};

/** Compute one metric by name for a finished run. */
double computeMetric(sim::Runner &runner, const std::string &metric,
                     const std::string &workload,
                     const sim::RunStats &stats);

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
