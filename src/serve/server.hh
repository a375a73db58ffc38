/**
 * @file
 * The resident `prophet serve` daemon: accepts experiment requests
 * over a Unix-domain socket and runs them through the existing
 * ExperimentDriver against resident Runner trace/baseline caches, so
 * a warm repeat of a spec skips every trace load.
 *
 * Robustness envelope (each hard-tested in tests/test_serve_daemon):
 *  - admission control: a bounded queue; overflow is shed explicitly
 *    with a structured server-overloaded error frame carrying a
 *    retry_after_ms hint — never a silent hang;
 *  - fault containment: a malformed frame, oversize payload, unknown
 *    spec field, or mid-run job failure produces a structured error
 *    or partial-result frame for THAT request while the daemon keeps
 *    serving everyone else;
 *  - each request runs with its own token, and every job it starts
 *    polls a private token chained to it, so a deadline, disconnect
 *    or drain cancels one request's jobs on a shared resident runner
 *    without touching its neighbours;
 *  - a client that disconnects mid-run has its request token fired
 *    (the orphaned jobs unwind within a bounded number of records)
 *    and its slot freed;
 *  - an RSS high-watermark evicts idle resident traces (least
 *    recently used first across every configuration, only while
 *    zero requests are in flight — eviction and admission share one
 *    lock, so a trace can never vanish under a run);
 *  - SIGTERM drain: stop accepting, let in-flight requests finish
 *    within a grace window, cancel the stragglers, flush, exit 6.
 *
 * Protocol: serve/protocol.hh frames; request/response JSON schema
 * documented in README "Serving".
 */

#ifndef PROPHET_SERVE_SERVER_HH
#define PROPHET_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.hh"
#include "driver/json.hh"
#include "driver/spec.hh"
#include "serve/protocol.hh"
#include "sim/runner.hh"
#include "trace/trace_cache.hh"

namespace prophet::serve
{

/** Daemon configuration (CLI flags map 1:1 onto these). */
struct ServeOptions
{
    std::string socketPath;

    /** Concurrent request slots (worker threads). */
    unsigned workers = 2;

    /** Connections waiting beyond the busy workers before the
     *  acceptor sheds with server-overloaded. */
    std::size_t maxQueue = 16;

    /** Per-frame payload cap (checked before allocation). */
    std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes;

    /** Per-frame I/O deadline on the daemon side, ms. */
    int ioTimeoutMs = 10000;

    /**
     * Default per-job deadline (seconds) applied to requests that do
     * not carry their own "deadline_s"; 0 = none.
     */
    double requestDeadlineS = 0.0;

    /**
     * RSS high-watermark in MiB; above it the monitor evicts idle
     * resident traces, least recently used first across every
     * configuration (counted in "serve.evictions" and
     * "runner.trace_releases"). 0 disables the watermark.
     */
    std::size_t maxRssMb = 0;

    /** Grace window for in-flight requests during drain, seconds.
     *  After it, their tokens fire and they unwind as interrupted. */
    double drainGraceS = 5.0;

    /** False turns the on-disk trace cache off (--no-trace-cache);
     *  true follows each request spec's "trace_cache". */
    bool traceCache = true;
    std::string traceCacheDir; ///< empty = default dir
};

/**
 * The daemon. start() binds (recovering a stale socket, refusing a
 * live one), spawns the acceptor/worker/monitor threads, and
 * returns; drainAndStop() is the graceful shutdown. One instance per
 * process — the metrics it reports live in the process-wide
 * registry.
 */
class ServeDaemon
{
  public:
    explicit ServeDaemon(ServeOptions opts);
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon &) = delete;
    ServeDaemon &operator=(const ServeDaemon &) = delete;

    /**
     * Acquire the pidfile lock, bind the socket, start serving.
     * Throws Error(SocketBusy) when a live daemon owns the path and
     * Error(Internal) on bind/listen failures. A stale socket file
     * (pidfile lock free) is removed and rebound.
     */
    void start();

    /**
     * Graceful drain: stop accepting, shed queued-but-unstarted
     * connections with a cancelled error frame, give in-flight
     * requests drainGraceS to finish, fire their tokens, join every
     * thread, unlink the socket and pidfile. Idempotent.
     */
    void drainAndStop();

    /** Requests currently executing (tests poll this). */
    std::size_t activeRequests();

    const std::string &socketPath() const { return opts.socketPath; }

  private:
    struct ActiveRequest
    {
        int fd = -1;
        CancellationToken token;
        // Written by the monitor thread, read by the worker that
        // owns the request — atomic, not mutex-guarded, because the
        // worker checks it between driver jobs on the hot path.
        std::atomic<bool> disconnected{false};
    };

    void acceptLoop();
    void workerLoop();
    void monitorLoop();
    void handleConnection(ActiveRequest &self);
    void handleRun(ActiveRequest &self, const driver::json::Value &req);
    void handleHealth(int fd);

    /**
     * The resident Runner for a spec's base configuration: one per
     * distinct (l1, dram_channels, warmup_records, sampling,
     * records) tuple — exactly the fields baseConfig() and the
     * record count derive from, so two specs sharing the tuple share
     * traces and baselines. Created on first use; caller holds mu.
     */
    sim::Runner &residentRunner(const driver::ExperimentSpec &spec,
                                std::size_t records);
    void maybeEvict();

    ServeOptions opts;
    std::string pidfilePath;
    int pidfileFd = -1;
    int listenFd = -1;
    bool started = false;
    bool stopped = false;
    std::chrono::steady_clock::time_point startTime;

    /** Guards queue/active/runners — and is held across eviction, so
     *  admission (which bumps active) excludes it. */
    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
    std::deque<int> queue; ///< accepted fds awaiting a worker
    std::vector<std::shared_ptr<ActiveRequest>> active;
    std::map<std::string, std::unique_ptr<sim::Runner>> runners;
    std::shared_ptr<trace::TraceCache> cache; ///< shared by runners

    std::thread acceptor;
    std::vector<std::thread> workers;
    std::thread monitor;
};

/** Resident-set size of this process in MiB (0 when unreadable). */
std::size_t currentRssMb();

} // namespace prophet::serve

#endif // PROPHET_SERVE_SERVER_HH
