#include "driver/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <thread>

#include "common/cancellation.hh"
#include "common/error.hh"
#include "common/exit_codes.hh"
#include "common/fault_injection.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/span_trace.hh"
#include "common/time.hh"
#include "driver/journal.hh"
#include "driver/metrics_report.hh"
#include "sim/pipelines.hh"
#include "sim/sweep.hh"

namespace prophet::driver
{

namespace
{

/**
 * Classify a captured job failure into the JobResult error fields.
 * Skipped slots (fail-fast cancelled them before they started) and
 * every exception class get a code the CLI can map to an exit code.
 */
void
recordFailure(JobResult &slot, const sim::SweepEngine::JobFailure &f,
              bool interrupted)
{
    slot.ok = false;
    slot.stats = sim::RunStats{};
    slot.metrics.clear();
    // Invariant the sinks rely on: errorMessage always starts with
    // the code name, so they print it without re-prefixing.
    // Error::what() is pre-rendered that way; the wrapped classes
    // get the prefix here.
    if (f.skipped) {
        slot.errorCode = ErrorCode::Cancelled;
        slot.errorMessage = interrupted
            ? "cancelled: run interrupted before this job started; "
              "rerun with --resume to continue"
            : "cancelled: skipped after an earlier "
              "job failure (fail-fast)";
        return;
    }
    try {
        std::rethrow_exception(f.error);
    } catch (const Error &e) {
        slot.errorCode = e.code();
        slot.errorMessage = e.what();
    } catch (const std::exception &e) {
        slot.errorCode = ErrorCode::Internal;
        slot.errorMessage = std::string("internal: ") + e.what();
    } catch (...) {
        slot.errorCode = ErrorCode::Internal;
        slot.errorMessage = "internal: unknown exception";
    }
}

/**
 * RAII scope of one job attempt: a private cancellation token chained
 * to its run's token, expiring @p deadline_s after the attempt starts
 * when a per-job deadline is set (> 0). Every System the calling
 * thread builds polls it (Runner's thread-local override), so
 * shutdown, fail-fast, a serve client's disconnect, a drain and the
 * deadline all reach the attempt at its next poll. Each retry gets a
 * fresh scope: tokens cannot un-cancel, so a timed-out attempt must
 * not poison the retry.
 */
class AttemptScope
{
  public:
    AttemptScope(const CancellationToken &run, double deadline_s)
        : token(&run,
                deadline_s > 0.0
                    ? CancellationToken::Clock::now()
                        + std::chrono::duration_cast<
                            CancellationToken::Clock::duration>(
                            std::chrono::duration<double>(deadline_s))
                    : CancellationToken::kNoDeadline)
    {
        sim::Runner::setThreadJobCancellation(&token);
    }

    AttemptScope(const AttemptScope &) = delete;
    AttemptScope &operator=(const AttemptScope &) = delete;

    ~AttemptScope() { sim::Runner::setThreadJobCancellation(nullptr); }

    bool expired() const { return token.expired(); }

  private:
    CancellationToken token;
};

/**
 * Total tries of a job whose attempts fail with a *transient* error
 * class (isTransientError: trace I/O, cache lock, job timeout),
 * and the base backoff before retry k (k times this).
 */
constexpr unsigned kMaxAttempts = 2;
constexpr unsigned kRetryBackoffMs = 50;

/**
 * Run one (workload, pipeline) job and derive the spec's metrics from
 * its stats, with bounded retry: a *transient* failure of either step
 * (classes where a second try can genuinely succeed) retries with
 * linear backoff up to kMaxAttempts total tries; permanent failures
 * and cancellation propagate immediately. The fault points
 * "job.<w>/<p>" and "job-transient.<w>/<p>" let tests fail exactly
 * one job — the latter with a retryable class, so arming it for a
 * single shot exercises the retry-then-succeed path.
 */
void
runJobWithRetry(sim::Runner &runner,
                const sim::PipelineInstance &inst,
                const std::vector<std::string> &metric_names,
                JobResult &slot, const CancellationToken &token,
                double deadline_s)
{
    const std::string job_key = slot.workload + "/" + slot.pipeline;
    for (unsigned attempt = 1;; ++attempt) {
        slot.attempts = attempt;
        try {
            AttemptScope scope(token, deadline_s);
            try {
                ErrorContext ctx;
                ctx.workload = slot.workload;
                ctx.pipeline = slot.pipeline;
                if (fault::shouldFail("job." + job_key))
                    throw Error(ErrorCode::FaultInjected,
                                "injected job failure",
                                std::move(ctx));
                if (fault::shouldFail("job-transient." + job_key))
                    throw Error(ErrorCode::TraceIo,
                                "injected transient job failure",
                                std::move(ctx));
                sim::RunStats stats = runner.run(inst, slot.workload);
                std::vector<std::pair<std::string, double>> values;
                for (const auto &m : metric_names)
                    values.emplace_back(
                        m, computeMetric(runner, m, slot.workload,
                                         stats));
                slot.stats = std::move(stats);
                slot.metrics = std::move(values);
                return;
            } catch (const Error &e) {
                // A cancellation caused by this attempt's own
                // deadline is a timeout — transient, so the loop
                // below retries it with a fresh deadline. External
                // cancellation (shutdown, fail-fast) stays
                // Cancelled and propagates, even past the deadline.
                if (e.code() == ErrorCode::Cancelled && scope.expired()
                    && !token.cancelled()) {
                    metrics::counter("watchdog.fires").inc();
                    prophet_warnf("  %s: exceeded the %.3gs job "
                                  "deadline; cancelling this attempt",
                                  job_key.c_str(), deadline_s);
                    char msg[96];
                    std::snprintf(msg, sizeof(msg),
                                  "job exceeded its %.3gs deadline "
                                  "and was cancelled by the watchdog",
                                  deadline_s);
                    ErrorContext tctx;
                    tctx.workload = slot.workload;
                    tctx.pipeline = slot.pipeline;
                    throw Error(ErrorCode::JobTimeout, msg,
                                std::move(tctx));
                }
                throw;
            }
        } catch (const Error &e) {
            if (!e.transient() || attempt >= kMaxAttempts
                || token.cancelled())
                throw;
            metrics::counter("driver.retries").inc();
            prophet_warnf("  %s: transient failure (%s); retrying "
                          "(attempt %u/%u)",
                          job_key.c_str(), e.what(), attempt + 1,
                          kMaxAttempts);
            metrics::ScopedTimer backoff_timer(
                metrics::histogram("phase.retry_backoff_ns"));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kRetryBackoffMs * attempt));
        }
    }
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * --progress: a monitor thread repainting one '\r'-terminated stderr
 * status line every ~200 ms — jobs done/total, the aggregate
 * simulation rate from the "sim.records" counter, and a linear ETA.
 * stdout is never touched, so result output stays byte-identical;
 * the driver suppresses the per-job "done" stderr lines while the
 * monitor owns the line.
 */
class ProgressMonitor
{
  public:
    ProgressMonitor(std::string name, std::size_t total,
                    const std::atomic<std::size_t> &done)
        : specName(std::move(name)), totalJobs(total), doneJobs(done),
          start(std::chrono::steady_clock::now()),
          recordsCounter(metrics::counter("sim.records"))
    {
        worker = std::thread([this] { loop(); });
    }

    ProgressMonitor(const ProgressMonitor &) = delete;
    ProgressMonitor &operator=(const ProgressMonitor &) = delete;

    ~ProgressMonitor() { stop(); }

    /** Idempotent: final repaint, newline, join the thread. */
    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            if (stopping)
                return;
            stopping = true;
        }
        wake.notify_all();
        worker.join();
        paint();
        std::fputc('\n', stderr);
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu);
        while (!wake.wait_for(lock, std::chrono::milliseconds(200),
                              [this] { return stopping; })) {
            lock.unlock();
            paint();
            lock.lock();
        }
    }

    void
    paint() const
    {
        double elapsed = secondsSince(start);
        std::size_t done = doneJobs.load(std::memory_order_relaxed);
        double mrecs = elapsed > 0.0
            ? static_cast<double>(recordsCounter.value()) / elapsed
                / 1e6
            : 0.0;
        char eta[32];
        if (done >= totalJobs)
            std::snprintf(eta, sizeof(eta), "done");
        else if (done == 0)
            std::snprintf(eta, sizeof(eta), "ETA --");
        else
            std::snprintf(eta, sizeof(eta), "ETA %.0fs",
                          elapsed / static_cast<double>(done)
                              * static_cast<double>(totalJobs - done));
        // One write per repaint; the trailing spaces erase leftovers
        // of a longer previous line.
        std::fprintf(stderr,
                     "\r%s: %zu/%zu jobs, %.1f Mrec/s, %s      ",
                     specName.c_str(), done, totalJobs, mrecs, eta);
    }

    std::string specName;
    std::size_t totalJobs;
    const std::atomic<std::size_t> &doneJobs;
    std::chrono::steady_clock::time_point start;
    metrics::Counter &recordsCounter;

    std::mutex mu;
    std::condition_variable wake;
    bool stopping = false;
    std::thread worker;
};

/** Every spec sink (one table when the spec names none), rendered. */
std::vector<SinkOutput>
renderOutputs(const ExperimentSpec &spec, const ExperimentReport &report)
{
    span::Span sink_span("sink-render", "phase");
    metrics::ScopedTimer sink_timer(
        metrics::histogram("phase.sink_render_ns"));
    std::vector<SinkSpec> sinks = spec.sinks;
    if (sinks.empty())
        sinks.emplace_back();
    std::vector<SinkOutput> outputs;
    for (const SinkSpec &s : sinks)
        outputs.push_back(
            {s, renderSink(s, spec, report.meta, report.results)});
    return outputs;
}

} // anonymous namespace

double
computeMetric(sim::Runner &runner, const std::string &metric,
              const std::string &workload,
              const sim::RunStats &stats)
{
    if (metric == "speedup")
        return runner.speedup(workload, stats);
    if (metric == "traffic")
        return runner.trafficNorm(workload, stats);
    if (metric == "coverage")
        return runner.coverage(workload, stats);
    if (metric == "accuracy")
        return stats.prefetchAccuracy();
    if (metric == "ipc")
        return stats.ipc;
    if (metric == "meta_lines")
        return static_cast<double>(stats.offchipMeta.total());
    prophet_fatal("unknown metric name");
}

ExperimentDriver::ExperimentDriver(ExperimentSpec spec_in,
                                   DriverOptions opts_in)
    : spec(std::move(spec_in)), opts(std::move(opts_in))
{}

unsigned
ExperimentDriver::effectiveThreads() const
{
    return opts.threads == DriverOptions::kNoThreads ? spec.threads
                                                     : opts.threads;
}

std::size_t
ExperimentDriver::effectiveRecords() const
{
    return opts.records == DriverOptions::kNoRecords ? spec.records
                                                     : opts.records;
}

bool
ExperimentDriver::traceCacheEnabled() const
{
    return opts.traceCache < 0 ? spec.traceCache
                               : opts.traceCache != 0;
}

bool
ExperimentDriver::keepGoingEnabled() const
{
    return opts.keepGoing < 0 ? spec.keepGoing : opts.keepGoing != 0;
}

ExperimentReport
ExperimentDriver::run()
{
    auto start = std::chrono::steady_clock::now();

    // Fresh instruments per run: a metrics report never carries a
    // previous run's counts. resetValues() keeps every registration,
    // so references cached across runs stay valid. Invisible without
    // the observability flags — it writes no output by itself. The
    // serve daemon opts out: its counters are daemon-lifetime values
    // and concurrent requests must not zero each other mid-flight.
    if (opts.resetMetrics)
        metrics::Registry::instance().resetValues();
    const bool tracing = !opts.traceOut.empty();
    if (tracing) {
        span::reset();
        span::setEnabled(true);
    }

    // Static reports short-circuit the job matrix: no results, and
    // the table sink renders the report from the spec alone.
    if (spec.report == ExperimentSpec::Report::SystemConfig) {
        ExperimentReport report;
        report.meta.specName = spec.name;
        report.meta.timestamp = iso8601UtcNow();
        report.outputs = renderOutputs(spec, report);
        return report;
    }

    // Either a per-run Runner (the historical path) or the caller's
    // resident one (the serve daemon — trace/baseline caches then
    // outlive this run and warm the next request for the same
    // configuration).
    std::unique_ptr<sim::Runner> owned_runner;
    if (!opts.runner)
        owned_runner = std::make_unique<sim::Runner>(
            spec.baseConfig(), effectiveRecords());
    sim::Runner &runner = opts.runner ? *opts.runner : *owned_runner;
    std::shared_ptr<trace::TraceCache> cache;
    if (owned_runner && traceCacheEnabled()) {
        cache =
            std::make_shared<trace::TraceCache>(opts.traceCacheDir);
        runner.setTraceCache(cache);
    }

    sim::SweepEngine engine(effectiveThreads());
    prophet_infof("%s: %zu workloads x %zu pipelines on %u "
                  "thread%s%s",
                  spec.name.c_str(), spec.workloads.size(),
                  spec.pipelines.size(), engine.threads(),
                  engine.threads() == 1 ? "" : "s",
                  cache ? " (trace cache on)" : "");

    // The experiment-wide span is heap-held so it can be closed
    // explicitly before the trace file is written.
    auto experiment_span = std::make_unique<span::Span>(
        "experiment " + spec.name, "experiment");

    const bool keep_going = keepGoingEnabled();
    const auto policy = keep_going
        ? sim::SweepEngine::FailurePolicy::KeepGoing
        : sim::SweepEngine::FailurePolicy::FailFast;

    // The run's token: the first failure under fail-fast fires it,
    // and so does the caller's shutdown (a signal, a daemon client's
    // disconnect or drain) — the two share one token. Every job
    // attempt polls a private token chained to it, so either cause
    // reaches in-flight Systems, and jobs waiting on another job's
    // baseline or profile, at their next poll. Polling a token that
    // never fires is bit-identical, so the no-failure path is
    // unchanged.
    CancellationToken local_token;
    CancellationToken &token =
        opts.shutdown ? *opts.shutdown : local_token;

    const std::uint64_t result_hash =
        spec.resultHash(effectiveRecords());
    const std::size_t per = spec.pipelines.size();
    const std::size_t total_jobs = spec.workloads.size() * per;

    // Resume journal: load what a previous (interrupted) run already
    // completed, and checkpoint every completion of this one. A
    // journal written for a different spec is a refusal (SpecError —
    // replaying its results would silently mix experiments); an
    // unreadable/uncreatable journal merely downgrades to running
    // without checkpointing.
    std::unique_ptr<ResultJournal> journal;
    if (!opts.journalPath.empty()) {
        try {
            ResultJournal::Options jopts;
            jopts.fsyncEachAppend = opts.journalFsync;
            journal = std::make_unique<ResultJournal>(
                opts.journalPath, result_hash, jopts);
        } catch (const SpecError &) {
            throw;
        } catch (const std::exception &e) {
            prophet_warnf("journal: %s unusable (%s); running "
                          "without checkpointing",
                          opts.journalPath.c_str(), e.what());
        }
    }
    std::vector<const JournalEntry *> replay(total_jobs, nullptr);
    if (journal) {
        for (const JournalEntry &e : journal->entries()) {
            const std::size_t idx = e.jobIndex;
            // Identity check per entry: hashes collide with
            // near-zero probability, but a journal edited or grown
            // by hand must not inject a wrong slot.
            const bool same_metrics = std::equal(
                e.metrics.begin(), e.metrics.end(), spec.metrics.begin(),
                spec.metrics.end(),
                [](const auto &got, const std::string &want) {
                    return got.first == want;
                });
            if (idx >= total_jobs || !same_metrics
                || e.workload != spec.workloads[idx / per]
                || e.pipeline
                    != spec.pipelines[idx % per].resultName()) {
                prophet_warnf("journal: entry for %s/%s does not "
                              "match this spec's job grid; ignored",
                              e.workload.c_str(), e.pipeline.c_str());
                continue;
            }
            replay[idx] = &e;
        }
        std::size_t hits = 0;
        for (const auto *e : replay)
            if (e)
                ++hits;
        if (hits > 0)
            prophet_infof("%s: resuming — %zu of %zu completed "
                          "job(s) replayed from %s",
                          spec.name.c_str(), hits, total_jobs,
                          journal->path().c_str());
    }

    // Per-job deadline (> 0): each attempt's token expires that long
    // after the attempt starts.
    const double deadline_s =
        opts.jobTimeoutS < 0.0 ? spec.deadlineS : opts.jobTimeoutS;

    // One fan-out: every (workload x pipeline) as an independent,
    // fault-isolated job, workload-major. Each job runs its pipeline
    // and derives its own metrics; the Runner computes each trace,
    // baseline and profile once, and a job needing one that another
    // job is computing waits for it. Slots are pre-sized: jobs write
    // disjoint indices and the merge order is the spec order by
    // construction. One failing job cannot take down its siblings;
    // its slot records why it failed instead.
    ExperimentReport report;
    report.results.resize(total_jobs);
    std::atomic<std::size_t> jobs_done{0};
    std::unique_ptr<ProgressMonitor> monitor;
    if (opts.progress)
        monitor = std::make_unique<ProgressMonitor>(
            spec.name, report.results.size(), jobs_done);
    auto failures = engine.tryForEach(
        report.results.size(),
        [&](std::size_t i) {
            JobResult &slot = report.results[i];
            const sim::PipelineInstance &inst =
                spec.pipelines[i % per];
            slot.workload = spec.workloads[i / per];
            slot.pipeline = inst.resultName();
            // A journaled completion replays instead of simulating:
            // same stats and metric bits, so the sinks are
            // indistinguishable from a from-scratch run.
            if (replay[i]) {
                slot.stats = replay[i]->stats;
                slot.metrics = replay[i]->metrics;
                slot.attempts = replay[i]->attempts;
                slot.resumed = true;
                metrics::counter("journal.hits").inc();
                jobs_done.fetch_add(1, std::memory_order_relaxed);
                if (!opts.progress)
                    prophet_infof("  %s/%s replayed from journal",
                                  slot.workload.c_str(),
                                  slot.pipeline.c_str());
                return;
            }
            span::Span job_span(
                "job " + slot.workload + "/" + slot.pipeline, "job");
            auto t0 = std::chrono::steady_clock::now();
            try {
                runJobWithRetry(runner, inst, spec.metrics, slot,
                                token, deadline_s);
            } catch (...) {
                // Failed jobs still report their duration and count
                // toward progress; the failure handling below fills
                // in why.
                slot.seconds = secondsSince(t0);
                jobs_done.fetch_add(1, std::memory_order_relaxed);
                throw;
            }
            slot.seconds = secondsSince(t0);
            jobs_done.fetch_add(1, std::memory_order_relaxed);
            if (journal) {
                JournalEntry e;
                e.jobIndex = static_cast<std::uint32_t>(i);
                e.workload = slot.workload;
                e.pipeline = slot.pipeline;
                e.attempts = slot.attempts;
                e.stats = slot.stats;
                e.metrics = slot.metrics;
                journal->append(e);
            }
            // The per-job line would fight the monitor's single
            // repainted line, so --progress replaces it.
            if (!opts.progress)
                prophet_infof("  %s/%s done", slot.workload.c_str(),
                              slot.pipeline.c_str());
        },
        policy, &token);
    if (monitor)
        monitor->stop();

    // Whether the external token fired decides how skipped slots
    // read: "interrupted, --resume continues" vs fail-fast's
    // "earlier job failure". Fail-fast also fires the shared
    // shutdown token, so a hard (non-skipped) failure keeps the
    // fail-fast wording; only a pure cancellation — nothing failed,
    // the token simply fired — reads as an interrupt.
    // In-flight jobs drained by the interrupt fail with Cancelled —
    // that is the interrupt's own signature, not a hard failure.
    bool hard_failure = false;
    for (const auto &f : failures) {
        if (f.ok() || f.skipped)
            continue;
        try {
            std::rethrow_exception(f.error);
        } catch (const Error &e) {
            if (e.code() != ErrorCode::Cancelled)
                hard_failure = true;
        } catch (...) {
            hard_failure = true;
        }
    }
    const bool interrupted = opts.shutdown
        && opts.shutdown->cancelled() && !hard_failure;
    report.interrupted = interrupted;

    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (failures[i].ok())
            continue;
        // Fail-fast skips before the slot's identity was filled in.
        JobResult &slot = report.results[i];
        if (slot.workload.empty()) {
            slot.workload = spec.workloads[i / per];
            slot.pipeline = spec.pipelines[i % per].resultName();
        }
        recordFailure(slot, failures[i], interrupted);
        ++report.failedJobs;
    }
    for (const auto &r : report.results)
        if (r.resumed)
            ++report.resumedJobs;

    auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start);
    report.meta.specName = spec.name;
    report.meta.specHash = result_hash;
    report.meta.records = effectiveRecords();
    report.meta.threads = engine.threads();
    report.meta.wallSeconds = elapsed.count();
    report.meta.timestamp = iso8601UtcNow();
    if (trace::TraceCache *tc =
            cache ? cache.get() : runner.traceCache()) {
        auto cs = tc->stats();
        report.meta.traceCacheHits = cs.hits;
        report.meta.traceCacheMisses = cs.misses;
    }
    // Cumulative phase split for the table sink's wall-clock line:
    // "simulate" covers every System::run (warmup + functional warm +
    // measured window + Prophet's profiling pass), "trace-load" the
    // generate-or-cache-load phase. The finer per-phase split — with
    // profiling broken out so sampled-vs-full speedups compare pure
    // timing simulation — is in --metrics-out "phases".
    report.meta.traceLoadSeconds =
        static_cast<double>(
            metrics::histogram("phase.trace_load_ns").sum())
        / 1e9;
    report.meta.simulateSeconds =
        static_cast<double>(
            metrics::histogram("phase.warmup_ns").sum()
            + metrics::histogram("phase.warm_ns").sum()
            + metrics::histogram("phase.profile_ns").sum()
            + metrics::histogram("phase.simulate_ns").sum())
        / 1e9;

    report.outputs = renderOutputs(spec, report);

    // Observability outputs last, so they cover the sink render too.
    // A requested-but-unwritable file fails the run like any sink.
    experiment_span.reset();
    if (tracing) {
        span::setEnabled(false);
        if (!span::writeJson(opts.traceOut))
            report.sinksOk = false;
    }
    if (!opts.metricsOut.empty()
        && !writeMetricsReport(report, opts.metricsOut))
        report.sinksOk = false;
    return report;
}

int
exitCodeForReport(const ExperimentReport &report, bool keepGoing)
{
    // An interrupt wins even when the drain left failed slots behind
    // — those are the interrupt's own signature, not a verdict on
    // the spec.
    if (report.interrupted)
        return static_cast<int>(ExitCode::Interrupted);
    if (report.failedJobs > 0)
        return static_cast<int>(keepGoing ? ExitCode::PartialFailure
                                          : ExitCode::RuntimeFailure);
    if (!report.sinksOk)
        return static_cast<int>(ExitCode::RuntimeFailure);
    return static_cast<int>(ExitCode::Success);
}

} // namespace prophet::driver
