#include "driver/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <set>
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
 * Watchdog over in-flight job attempts. One monitor thread polls a
 * registry of active attempts and fires an attempt's private
 * CancellationToken when (a) the attempt outlives the per-job
 * deadline — counted under "watchdog.fires" and surfaced to the
 * retry loop as a transient JobTimeout — or (b) the run's global
 * token fires (graceful shutdown / fail-fast), which must reach
 * Systems that are polling their private token instead of the
 * global one.
 *
 * Created only when a deadline or an external shutdown token is in
 * play: without it, jobs poll the runner-wide token exactly as
 * before, so the default path is untouched.
 */
class JobWatchdog
{
  public:
    struct Watch
    {
        CancellationToken token; ///< this attempt's private token
        std::string jobKey;
        std::chrono::steady_clock::time_point deadline{};
        bool hasDeadline = false;
        std::atomic<bool> timedOut{false};
    };

    JobWatchdog(double deadline_s, const CancellationToken *global)
        : deadlineS(deadline_s), globalToken(global)
    {
        worker = std::thread([this] { loop(); });
    }

    JobWatchdog(const JobWatchdog &) = delete;
    JobWatchdog &operator=(const JobWatchdog &) = delete;

    ~JobWatchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            stopping = true;
        }
        wake.notify_all();
        worker.join();
    }

    double deadlineSeconds() const { return deadlineS; }

    /**
     * Register one attempt. Each retry gets a fresh Watch: tokens
     * cannot un-cancel, so a timed-out attempt's token must not
     * poison the retry.
     */
    std::shared_ptr<Watch>
    beginAttempt(const std::string &job_key)
    {
        auto w = std::make_shared<Watch>();
        w->jobKey = job_key;
        if (deadlineS > 0.0) {
            w->deadline = std::chrono::steady_clock::now()
                + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(deadlineS));
            w->hasDeadline = true;
        }
        // An attempt started after shutdown fired is born cancelled
        // — the monitor's next poll would catch it, but this closes
        // the window.
        if (globalToken && globalToken->cancelled())
            w->token.cancel();
        std::lock_guard<std::mutex> lock(mu);
        active.push_back(w);
        return w;
    }

    void
    endAttempt(const std::shared_ptr<Watch> &w)
    {
        std::lock_guard<std::mutex> lock(mu);
        active.erase(std::remove(active.begin(), active.end(), w),
                     active.end());
    }

  private:
    void
    loop()
    {
        // Poll at a quarter of the deadline (clamped to [1, 100] ms)
        // so the overshoot past a deadline is bounded without
        // burning a core; 100 ms when only shutdown propagation is
        // needed.
        auto interval = std::chrono::milliseconds(100);
        if (deadlineS > 0.0)
            interval = std::chrono::milliseconds(std::min(
                100L,
                std::max(1L, static_cast<long>(deadlineS * 250.0))));
        std::unique_lock<std::mutex> lock(mu);
        while (!wake.wait_for(lock, interval,
                              [this] { return stopping; })) {
            bool shutdown_fired =
                globalToken && globalToken->cancelled();
            auto now = std::chrono::steady_clock::now();
            std::vector<std::string> expired;
            for (const auto &w : active) {
                if (shutdown_fired) {
                    w->token.cancel();
                    continue;
                }
                if (w->hasDeadline && now >= w->deadline
                    && !w->timedOut.load(std::memory_order_relaxed)) {
                    w->timedOut.store(true,
                                      std::memory_order_relaxed);
                    w->token.cancel();
                    metrics::counter("watchdog.fires").inc();
                    expired.push_back(w->jobKey);
                }
            }
            // Log outside the registry lock: begin/endAttempt on
            // worker threads must never wait on stderr.
            lock.unlock();
            for (const auto &key : expired)
                prophet_warnf("  %s: exceeded the %.3gs job "
                              "deadline; cancelling this attempt",
                              key.c_str(), deadlineS);
            lock.lock();
        }
    }

    double deadlineS;
    const CancellationToken *globalToken;

    std::mutex mu;
    std::condition_variable wake;
    bool stopping = false;
    std::vector<std::shared_ptr<Watch>> active;
    std::thread worker;
};

/**
 * RAII scope of one supervised attempt: registers a Watch and routes
 * every System the calling thread builds to the attempt's private
 * token (Runner's thread-local override). No-op without a watchdog —
 * jobs then poll the runner-wide token, the pre-watchdog behaviour.
 */
class AttemptScope
{
  public:
    AttemptScope(JobWatchdog *watchdog, const std::string &job_key)
        : wd(watchdog)
    {
        if (!wd)
            return;
        watch = wd->beginAttempt(job_key);
        sim::Runner::setThreadJobCancellation(&watch->token);
    }

    AttemptScope(const AttemptScope &) = delete;
    AttemptScope &operator=(const AttemptScope &) = delete;

    ~AttemptScope()
    {
        if (!watch)
            return;
        sim::Runner::setThreadJobCancellation(nullptr);
        wd->endAttempt(watch);
    }

    bool
    timedOut() const
    {
        return watch
            && watch->timedOut.load(std::memory_order_relaxed);
    }

  private:
    JobWatchdog *wd;
    std::shared_ptr<JobWatchdog::Watch> watch;
};

/**
 * Run one (workload, pipeline) job with bounded retry: a *transient*
 * failure (trace I/O, cache lock, watchdog timeout — classes where a
 * second try can genuinely succeed) retries with linear backoff up
 * to @p max_attempts total tries; permanent failures and
 * cancellation propagate immediately. The fault points "job.<w>/<p>"
 * and "job-transient.<w>/<p>" let tests fail exactly one job — the
 * latter with a retryable class, so arming it for a single shot
 * exercises the retry-then-succeed path.
 */
void
runJobWithRetry(sim::Runner &runner,
                const sim::PipelineInstance &inst, JobResult &slot,
                const CancellationToken &token,
                JobWatchdog *watchdog, unsigned max_attempts,
                unsigned backoff_ms)
{
    const std::string job_key = slot.workload + "/" + slot.pipeline;
    if (max_attempts == 0)
        max_attempts = 1;
    for (unsigned attempt = 1;; ++attempt) {
        slot.attempts = attempt;
        try {
            AttemptScope scope(watchdog, job_key);
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
                slot.stats = runner.run(inst, slot.workload);
                return;
            } catch (const Error &e) {
                // A cancellation caused by this attempt's own
                // deadline is a timeout — transient, so the loop
                // below retries it with a fresh deadline. External
                // cancellation (shutdown, fail-fast) stays
                // Cancelled and propagates.
                if (e.code() == ErrorCode::Cancelled
                    && scope.timedOut()) {
                    char msg[96];
                    std::snprintf(msg, sizeof(msg),
                                  "job exceeded its %.3gs deadline "
                                  "and was cancelled by the watchdog",
                                  watchdog->deadlineSeconds());
                    ErrorContext tctx;
                    tctx.workload = slot.workload;
                    tctx.pipeline = slot.pipeline;
                    throw Error(ErrorCode::JobTimeout, msg,
                                std::move(tctx));
                }
                throw;
            }
        } catch (const Error &e) {
            if (!e.transient() || attempt >= max_attempts
                || token.cancelled())
                throw;
            metrics::counter("driver.retries").inc();
            prophet_warnf("  %s: transient failure (%s); retrying "
                          "(attempt %u/%u)",
                          job_key.c_str(), e.what(), attempt + 1,
                          max_attempts);
            if (backoff_ms > 0) {
                metrics::ScopedTimer backoff_timer(
                    metrics::histogram("phase.retry_backoff_ns"));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoff_ms * attempt));
            }
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

/** Does any requested output need the per-workload baseline run? */
bool
needsBaseline(const ExperimentSpec &spec)
{
    for (const auto &m : spec.metrics)
        if (m == "speedup" || m == "traffic" || m == "coverage")
            return true;
    for (const auto &p : spec.pipelines) {
        const sim::PipelineDef *def = sim::findPipeline(p.name);
        if (def && def->needsBaseline)
            return true;
    }
    return false;
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

void
ExperimentDriver::addSink(std::unique_ptr<Sink> sink)
{
    extraSinks.push_back(std::move(sink));
}

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
        report.sinksOk = deliver(report);
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

    // Fail-fast cancellation: the first failure fires the token and
    // every in-flight System unwinds within a bounded number of
    // records. Attaching the token is bit-identical when it never
    // fires, so the no-failure path is unchanged. When the caller
    // supplied an external shutdown token (the CLI's signal handler
    // fires it), fail-fast and shutdown share one token: either
    // cause drains in-flight jobs the same way.
    CancellationToken local_token;
    CancellationToken &token =
        opts.shutdown ? *opts.shutdown : local_token;
    // An external (resident) runner is shared by concurrent runs, so
    // the runner-wide token stays untouched — a per-run token wired
    // there would dangle after this frame returns and clobber the
    // other runs' cancellation. The watchdog (forced on by
    // opts.shutdown below) routes both shutdown and fail-fast to its
    // per-attempt thread-local tokens instead.
    if (owned_runner)
        runner.setCancellation(&token);

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
    std::set<std::string> replayed_baselines;
    if (journal) {
        for (const JournalEntry &e : journal->entries()) {
            if (e.kind == JournalEntry::Kind::Baseline) {
                runner.injectBaseline(e.workload, e.stats);
                replayed_baselines.insert(e.workload);
                continue;
            }
            const std::size_t idx = e.jobIndex;
            // Identity check per entry: hashes collide with
            // near-zero probability, but a journal edited or grown
            // by hand must not inject a wrong slot.
            if (idx >= total_jobs
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
        if (hits > 0 || !replayed_baselines.empty())
            prophet_infof("%s: resuming — %zu of %zu completed "
                          "job(s) replayed from %s",
                          spec.name.c_str(), hits, total_jobs,
                          journal->path().c_str());
    }

    // Watchdog: only when a per-job deadline or an external shutdown
    // token is in play. API users who set neither get exactly the
    // old execution path (no monitor thread, no per-attempt tokens).
    const double deadline_s =
        opts.jobTimeoutS < 0.0 ? spec.deadlineS : opts.jobTimeoutS;
    std::unique_ptr<JobWatchdog> watchdog;
    if (deadline_s > 0.0 || opts.shutdown)
        watchdog =
            std::make_unique<JobWatchdog>(deadline_s, &token);

    // Phase 1: baselines, one job per workload, when any metric or
    // pipeline normalizes to them (keeps the fan-out phase from
    // computing them redundantly inside racing jobs). A warm-up
    // failure is not final — the workload's jobs recompute the
    // baseline themselves and fail individually if it truly cannot
    // be built — so warm-up always runs keep-going. Baselines
    // journal too: they are the expensive half of a resumed run.
    if (needsBaseline(spec)) {
        auto warm = engine.tryForEach(
            spec.workloads.size(),
            [&](std::size_t i) {
                const std::string &w = spec.workloads[i];
                span::Span warm_span("baseline " + w, "job");
                // Scope the warm-up under the watchdog too: on a
                // shared resident runner this is the only cancellation
                // route, and a deadline applies to baselines as much
                // as to the jobs they feed.
                AttemptScope scope(watchdog.get(), w + "/baseline");
                const sim::RunStats &stats = runner.baseline(w);
                if (journal && !replayed_baselines.count(w)) {
                    JournalEntry e;
                    e.kind = JournalEntry::Kind::Baseline;
                    e.workload = w;
                    e.stats = stats;
                    journal->append(e);
                }
            },
            sim::SweepEngine::FailurePolicy::KeepGoing);
        for (std::size_t i = 0; i < warm.size(); ++i)
            if (!warm[i].ok())
                prophet_warnf("  baseline warm-up failed for %s; its "
                              "jobs will retry individually",
                              spec.workloads[i].c_str());
    }

    // Phase 2: every (workload x pipeline) as an independent,
    // fault-isolated job, workload-major. Slots are pre-sized: jobs
    // write disjoint indices and the merge order is the spec order
    // by construction. One failing job cannot take down its
    // siblings; its slot records why it failed instead.
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
            // same stats bits, so downstream metrics and sinks are
            // indistinguishable from a from-scratch run.
            if (replay[i]) {
                slot.stats = replay[i]->stats;
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
                runJobWithRetry(runner, inst, slot, token,
                                watchdog.get(), opts.maxAttempts,
                                opts.retryBackoffMs);
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
                e.kind = JournalEntry::Kind::Job;
                e.jobIndex = static_cast<std::uint32_t>(i);
                e.workload = slot.workload;
                e.pipeline = slot.pipeline;
                e.attempts = slot.attempts;
                e.stats = slot.stats;
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

    // Metric derivation is sequential: baselines are cached by now
    // and the division is trivial. Still fault-isolated per job — a
    // metric that needs an uncomputable baseline fails that job, not
    // the run.
    for (auto &r : report.results) {
        if (!r.ok)
            continue;
        try {
            for (const auto &m : spec.metrics)
                r.metrics.emplace_back(
                    m, computeMetric(runner, m, r.workload, r.stats));
        } catch (...) {
            sim::SweepEngine::JobFailure f;
            f.error = std::current_exception();
            recordFailure(r, f, interrupted);
            ++report.failedJobs;
        }
    }

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

    report.sinksOk = deliver(report);

    // Observability outputs last, so they cover the sink phase too.
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

bool
ExperimentDriver::deliver(const ExperimentReport &report)
{
    // A suppressing caller (the serve daemon) replaced the spec's
    // sinks with its own capturing ones via addSink, so only extras
    // run — including the implicit default table.
    std::vector<std::unique_ptr<Sink>> sinks;
    if (opts.suppressSpecSinks) {
        // nothing from the spec
    } else if (spec.sinks.empty()) {
        sinks.push_back(makeSink(SinkSpec{}));
    } else {
        for (const auto &s : spec.sinks)
            sinks.push_back(makeSink(s));
    }
    for (auto &s : extraSinks)
        sinks.push_back(std::move(s));
    extraSinks.clear();

    span::Span sink_span("sink-render", "phase");
    metrics::ScopedTimer sink_timer(
        metrics::histogram("phase.sink_render_ns"));
    bool ok = true;
    for (const auto &s : sinks) {
        for (const auto &r : report.results)
            s->result(r);
        if (!s->finish(spec, report.meta))
            ok = false;
    }
    return ok;
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
