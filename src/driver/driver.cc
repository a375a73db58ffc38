#include "driver/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
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
 * @p resumable: an interrupted run's journal lets --resume continue it.
 */
void
recordFailure(JobResult &slot, const sim::SweepEngine::JobFailure &f,
              bool interrupted, bool resumable)
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
        slot.errorMessage = !interrupted
            ? "cancelled: skipped after an earlier job failure "
              "(fail-fast)"
            : resumable
            ? "cancelled: run interrupted before this job started; "
              "rerun with --resume to continue"
            : "cancelled: run interrupted before this job started";
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
 * when a per-job deadline is set (> 0), installed as the calling
 * thread's job token (cancellation::Scope). Every System, trace
 * generation and report pass the attempt runs polls it, so shutdown,
 * fail-fast, a serve client's disconnect, a drain and the deadline
 * all reach the attempt at its next poll. Each retry gets a
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
                    : CancellationToken::kNoDeadline),
          scope(&token)
    {
    }

    bool expired() const { return token.expired(); }

  private:
    CancellationToken token;
    cancellation::Scope scope;
};

/**
 * Total tries of a job whose attempts fail with a *transient* error
 * class (isTransientError: trace I/O, cache lock, job timeout),
 * and the base backoff before retry k (k times this).
 */
constexpr unsigned kMaxAttempts = 2;
constexpr unsigned kRetryBackoffMs = 50;

/**
 * Run @p slot's job (@p attempt fills the slot) with bounded retry,
 * each try under its own AttemptScope: a *transient* failure
 * (classes where a second try can genuinely succeed) retries with
 * linear backoff up to kMaxAttempts total tries; permanent failures
 * and cancellation propagate immediately. The fault points
 * "job.<w>/<p>" and "job-transient.<w>/<p>" let tests fail exactly
 * one job — the latter with a retryable class, so arming it for a
 * single shot exercises the retry-then-succeed path.
 */
void
runWithRetry(JobResult &slot, const CancellationToken &token,
             double deadline_s, const std::function<void()> &attempt)
{
    const std::string job_key = slot.workload + "/" + slot.pipeline;
    for (unsigned n = 1;; ++n) {
        slot.attempts = n;
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
                attempt();
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
            if (!e.transient() || n >= kMaxAttempts || token.cancelled())
                throw;
            metrics::counter("driver.retries").inc();
            prophet_warnf("  %s: transient failure (%s); retrying "
                          "(attempt %u/%u)",
                          job_key.c_str(), e.what(), n + 1,
                          kMaxAttempts);
            metrics::ScopedTimer backoff_timer(
                metrics::histogram("phase.retry_backoff_ns"));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kRetryBackoffMs * n));
        }
    }
}

/** Record a fan-out's failures, and whether it was interrupted. */
void
recordFailures(const std::vector<sim::SweepEngine::JobFailure> &failures,
               const CancellationToken *shutdown, bool resumable,
               ExperimentReport &report)
{
    // Whether the external token fired decides how skipped slots
    // read: "interrupted" vs fail-fast's "earlier job failure".
    // Fail-fast also fires the shared shutdown token, so a hard
    // (non-skipped) failure keeps the fail-fast wording; only a pure
    // cancellation — nothing failed, the token simply fired — reads
    // as an interrupt. In-flight jobs drained by the interrupt fail
    // with Cancelled — that is the interrupt's own signature, not a
    // hard failure.
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
    report.interrupted =
        shutdown && shutdown->cancelled() && !hard_failure;
    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (failures[i].ok())
            continue;
        recordFailure(report.results[i], failures[i], report.interrupted,
                      resumable);
        ++report.failedJobs;
    }
}

/** A report pass failed or never ran: its text is abandoned. */
struct PassesIncomplete
{};

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
    return opts.traceCache && spec.traceCache;
}

bool
ExperimentDriver::keepGoingEnabled() const
{
    // A report's text needs every workload's pass: it fails fast.
    if (spec.report)
        return false;
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
    if (spec.report)
        prophet_infof("%s: %s report on %u thread%s",
                      spec.name.c_str(), spec.report->name,
                      engine.threads(), engine.threads() == 1 ? "" : "s");
    else
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

    // The run's token: the first failure under fail-fast fires it,
    // and so does the caller's shutdown (a signal, a daemon client's
    // disconnect or drain) — the two share one token. Every job
    // attempt polls a private token chained to it, so either cause
    // reaches in-flight Systems and trace passes, and jobs waiting on
    // another job's trace, baseline or profile, at their next poll.
    // Polling a token that never fires is bit-identical, so the
    // no-failure path is unchanged.
    CancellationToken local_token;
    CancellationToken &token =
        opts.shutdown ? *opts.shutdown : local_token;
    // Per-job deadline (> 0): each attempt's token expires that long
    // after the attempt starts.
    const double deadline_s =
        opts.jobTimeoutS < 0.0 ? spec.deadlineS : opts.jobTimeoutS;

    const std::uint64_t result_hash =
        spec.resultHash(effectiveRecords());
    ExperimentReport report;
    // A report's text is the run's one output, the table sink (the
    // only sink a report spec has); a job matrix renders its sinks
    // from the results once the metadata is in.
    if (spec.report)
        runReport(runner, engine, token, deadline_s, report);
    else
        runJobs(runner, engine, token, deadline_s, result_hash, report);

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
    // timing simulation — is in --metrics-out "phases". The sums come
    // from a snapshot because looking a histogram up by name
    // registers it, and that report lists every registered phase: a
    // phase that never ran must stay absent.
    std::uint64_t trace_load_ns = 0, simulate_ns = 0;
    for (const metrics::HistogramSample &h :
         metrics::Registry::instance().snapshot().histograms) {
        if (h.name == "phase.trace_load_ns")
            trace_load_ns = h.snap.sum;
        else if (h.name == "phase.warmup_ns" || h.name == "phase.warm_ns"
                 || h.name == "phase.profile_ns"
                 || h.name == "phase.simulate_ns")
            simulate_ns += h.snap.sum;
    }
    report.meta.traceLoadSeconds = static_cast<double>(trace_load_ns) / 1e9;
    report.meta.simulateSeconds = static_cast<double>(simulate_ns) / 1e9;

    if (!spec.report)
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

void
ExperimentDriver::runReport(sim::Runner &runner, sim::SweepEngine &engine,
                            CancellationToken &token, double deadline_s,
                            ExperimentReport &report)
{
    for (const std::string &w : spec.workloads) {
        JobResult &slot = report.results.emplace_back();
        slot.workload = w;
        slot.pipeline = spec.report->name;
    }
    std::vector<sim::SweepEngine::JobFailure> failures;
    auto each = [&](const std::function<void(std::size_t)> &pass) {
        failures = engine.tryForEach(
            report.results.size(),
            [&](std::size_t i) {
                JobResult &slot = report.results[i];
                auto t0 = std::chrono::steady_clock::now();
                runWithRetry(slot, token, deadline_s, [&] { pass(i); });
                slot.seconds = secondsSince(t0);
                // As after a workload's last job.
                if (!opts.runner)
                    runner.releaseTrace(slot.workload);
            },
            sim::SweepEngine::FailurePolicy::FailFast, &token);
        for (const auto &f : failures)
            if (!f.ok())
                throw PassesIncomplete{};
    };
    std::string text;
    try {
        text = spec.report->render(spec, runner, each);
    } catch (const PassesIncomplete &) {
    }
    recordFailures(failures, opts.shutdown, false, report);
    report.outputs.push_back(
        {SinkSpec{},
         report.failedJobs == 0 ? text : renderFailures(report.results)});
}

void
ExperimentDriver::runJobs(sim::Runner &runner, sim::SweepEngine &engine,
                          CancellationToken &token, double deadline_s,
                          std::uint64_t result_hash,
                          ExperimentReport &report)
{
    const bool keep_going = keepGoingEnabled();
    const auto policy = keep_going
        ? sim::SweepEngine::FailurePolicy::KeepGoing
        : sim::SweepEngine::FailurePolicy::FailFast;

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
            journal = std::make_unique<ResultJournal>(
                opts.journalPath, result_hash);
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

    // One fan-out: every (workload x pipeline) as an independent,
    // fault-isolated job, workload-major. Each job runs its pipeline
    // and derives its own metrics; the Runner computes each trace,
    // baseline and profile once, and a job needing one that another
    // job is computing waits for it. Slots are pre-sized: jobs write
    // disjoint indices and the merge order is the spec order by
    // construction. One failing job cannot take down its siblings;
    // its slot records why it failed instead.
    report.results.resize(total_jobs);
    for (std::size_t i = 0; i < total_jobs; ++i) {
        report.results[i].workload = spec.workloads[i / per];
        report.results[i].pipeline = spec.pipelines[i % per].resultName();
    }
    std::atomic<std::size_t> jobs_done{0};
    std::unique_ptr<ProgressMonitor> monitor;
    if (opts.progress)
        monitor = std::make_unique<ProgressMonitor>(
            spec.name, report.results.size(), jobs_done);

    // A job finishes exactly once: it completes, its last attempt
    // fails, or it replays from the journal. When a workload's last
    // job finishes, a per-run Runner drops that workload's trace, so
    // the run holds only the traces of workloads with unfinished
    // jobs. Jobs that never start (fail-fast skips, an interrupt)
    // never count down; their workloads' traces live until the run
    // ends. A resident Runner (the serve daemon) keeps its traces:
    // warming the next request is its purpose.
    std::vector<std::atomic<std::size_t>> unfinished(
        spec.workloads.size());
    for (auto &n : unfinished)
        n.store(per);
    auto finish = [&](std::size_t i) {
        jobs_done.fetch_add(1, std::memory_order_relaxed);
        if (!opts.runner && unfinished[i / per].fetch_sub(1) == 1)
            runner.releaseTrace(spec.workloads[i / per]);
    };
    auto failures = engine.tryForEach(
        report.results.size(),
        [&](std::size_t i) {
            JobResult &slot = report.results[i];
            const sim::PipelineInstance &inst =
                spec.pipelines[i % per];
            // A journaled completion replays instead of simulating:
            // same stats and metric bits, so the sinks are
            // indistinguishable from a from-scratch run.
            if (replay[i]) {
                slot.stats = replay[i]->stats;
                slot.metrics = replay[i]->metrics;
                slot.attempts = replay[i]->attempts;
                slot.resumed = true;
                metrics::counter("journal.hits").inc();
                finish(i);
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
                runWithRetry(slot, token, deadline_s, [&] {
                    sim::RunStats stats =
                        runner.run(inst, slot.workload);
                    std::vector<std::pair<std::string, double>> values;
                    for (const auto &m : spec.metrics) {
                        const MetricDef *def = findMetric(m);
                        prophet_assert(def != nullptr);
                        values.emplace_back(
                            m, def->compute(runner, slot.workload,
                                            stats));
                    }
                    slot.stats = std::move(stats);
                    slot.metrics = std::move(values);
                });
            } catch (...) {
                // Failed jobs still report their duration and count
                // toward progress; the failure handling below fills
                // in why.
                slot.seconds = secondsSince(t0);
                finish(i);
                throw;
            }
            slot.seconds = secondsSince(t0);
            finish(i);
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

    recordFailures(failures, opts.shutdown, true, report);
    for (const auto &r : report.results)
        if (r.resumed)
            ++report.resumedJobs;
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
