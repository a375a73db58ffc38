#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/exit_codes.hh"
#include "common/fault_injection.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "driver/driver.hh"
#include "driver/json.hh"

namespace prophet::serve
{

namespace json = driver::json;

namespace
{

/** Shorthand: one {"type":"error",...} response document. */
std::string
errorFramePayload(ErrorCode code, const std::string &message,
                  long retry_after_ms = -1)
{
    json::Value o = json::Value::makeObject();
    o.set("type", json::Value("error"));
    o.set("code", json::Value(errorCodeName(code)));
    o.set("message", json::Value(message));
    o.set("exit_code",
          json::Value(static_cast<int>(exitCodeForError(code))));
    if (retry_after_ms >= 0)
        o.set("retry_after_ms",
              json::Value(static_cast<double>(retry_after_ms)));
    return json::dump(o);
}

/**
 * Refuse a connection with @p payload (overload shed, drain). The
 * client is typically mid-write of its request when the refusal is
 * decided, so its frame is drained first: closing with unread bytes
 * in the kernel buffer turns the close into an RST that can destroy
 * the refusal frame before the client reads it — and a structured
 * shed that the client never sees is exactly the silent drop this
 * path exists to prevent.
 */
void
refuseConnection(int fd, const std::string &payload,
                 std::uint32_t max_bytes)
{
    readFrame(fd, max_bytes, 250);
    writeFrame(fd, payload, 1000);
    ::close(fd);
}

} // anonymous namespace

std::size_t
currentRssMb()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long size_pages = 0, rss_pages = 0;
    const int n =
        std::fscanf(f, "%lu %lu", &size_pages, &rss_pages);
    std::fclose(f);
    if (n != 2)
        return 0;
    const long page = ::sysconf(_SC_PAGESIZE);
    const std::size_t bytes = static_cast<std::size_t>(rss_pages)
        * static_cast<std::size_t>(page > 0 ? page : 4096);
    return bytes >> 20;
}

ServeDaemon::ServeDaemon(ServeOptions opts) : opts(std::move(opts))
{
    if (this->opts.workers == 0)
        this->opts.workers = 1;
    pidfilePath = this->opts.socketPath + ".pid";
}

ServeDaemon::~ServeDaemon()
{
    drainAndStop();
}

void
ServeDaemon::start()
{
    ErrorContext ctx;
    ctx.path = opts.socketPath;

    // Singleton guard: the flock on <socket>.pid outlives any crash
    // (the kernel drops it with the process), so "lock held" is the
    // one reliable liveness signal — the socket file existing is
    // not, a crashed daemon leaves it behind.
    pidfileFd = ::open(pidfilePath.c_str(), O_RDWR | O_CREAT, 0644);
    if (pidfileFd < 0)
        throw Error(ErrorCode::Internal, "cannot open pidfile "
                    + pidfilePath + ": " + std::strerror(errno),
                    std::move(ctx));
    if (::flock(pidfileFd, LOCK_EX | LOCK_NB) != 0) {
        char buf[32] = {0};
        const ssize_t n = ::read(pidfileFd, buf, sizeof(buf) - 1);
        ::close(pidfileFd);
        pidfileFd = -1;
        std::string who =
            n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                  : std::string("unknown pid");
        while (!who.empty()
               && (who.back() == '\n' || who.back() == ' '))
            who.pop_back();
        throw Error(ErrorCode::SocketBusy,
                    "a live prophet serve daemon (pid " + who
                        + ") already owns this socket",
                    std::move(ctx));
    }
    char pid_buf[32];
    std::snprintf(pid_buf, sizeof(pid_buf), "%ld\n",
                  static_cast<long>(::getpid()));
    if (::ftruncate(pidfileFd, 0) != 0
        || ::pwrite(pidfileFd, pid_buf, std::strlen(pid_buf), 0) < 0)
        prophet_warnf("serve: cannot record pid in %s",
                      pidfilePath.c_str());

    // Holding the lock proves nothing live owns the socket path: a
    // leftover file is a stale crash artifact, removed and rebound.
    if (::access(opts.socketPath.c_str(), F_OK) == 0) {
        prophet_infof("serve: removing stale socket %s",
                      opts.socketPath.c_str());
        ::unlink(opts.socketPath.c_str());
    }

    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (opts.socketPath.size() >= sizeof(addr.sun_path))
        throw Error(ErrorCode::Internal,
                    "socket path exceeds the AF_UNIX limit",
                    std::move(ctx));
    std::memcpy(addr.sun_path, opts.socketPath.c_str(),
                opts.socketPath.size() + 1);

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        throw Error(ErrorCode::Internal, std::string("socket: ")
                    + std::strerror(errno), std::move(ctx));
    if (::bind(listenFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0
        || ::listen(listenFd, 64) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        throw Error(ErrorCode::Internal, "cannot bind " + opts.socketPath
                    + ": " + why, std::move(ctx));
    }

    if (opts.traceCache) {
        try {
            cache = std::make_shared<trace::TraceCache>(
                opts.traceCacheDir);
        } catch (const std::exception &e) {
            prophet_warnf("serve: trace cache unavailable (%s); "
                          "running without it", e.what());
        }
    }

    startTime = std::chrono::steady_clock::now();
    stopping = false;
    acceptor = std::thread([this] { acceptLoop(); });
    for (unsigned i = 0; i < opts.workers; ++i)
        workers.emplace_back([this] { workerLoop(); });
    monitor = std::thread([this] { monitorLoop(); });
    started = true;
    prophet_infof("serve: listening on %s (%u worker%s, queue %zu)",
                  opts.socketPath.c_str(), opts.workers,
                  opts.workers == 1 ? "" : "s", opts.maxQueue);
}

void
ServeDaemon::acceptLoop()
{
    static metrics::Counter &accepted =
        metrics::counter("serve.accepted");
    static metrics::Counter &accept_errors =
        metrics::counter("serve.accept_errors");
    static metrics::Counter &rejected =
        metrics::counter("serve.rejected");
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mu);
            if (stopping)
                return;
        }
        struct pollfd pfd;
        pfd.fd = listenFd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int rc = ::poll(&pfd, 1, 100);
        if (rc <= 0)
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno != EINTR && errno != EAGAIN)
                accept_errors.inc();
            continue;
        }
        if (fault::shouldFail("serve.accept")) {
            // Containment contract: an accept-path fault costs that
            // one connection, never the acceptor.
            accept_errors.inc();
            ::close(fd);
            continue;
        }
        accepted.inc();
        std::size_t backlog;
        bool shed = false, draining = false;
        {
            std::lock_guard<std::mutex> lock(mu);
            if (stopping) {
                draining = true;
            } else if (queue.size() >= opts.maxQueue) {
                shed = true;
            } else {
                queue.push_back(fd);
            }
            backlog = queue.size() + active.size();
        }
        // notify_all, not notify_one: the monitor thread waits on
        // this cv too, and a notify_one it swallows would strand the
        // queued connection until the next accept.
        cv.notify_all();
        if (draining) {
            refuseConnection(fd,
                             errorFramePayload(ErrorCode::Cancelled,
                                               "daemon is draining"),
                             opts.maxFrameBytes);
            continue;
        }
        if (shed) {
            // Explicit load shedding: the structured refusal with a
            // backlog-scaled retry hint IS the overload behaviour —
            // a client must never hang on a silently dropped
            // connection.
            rejected.inc();
            refuseConnection(
                fd,
                errorFramePayload(
                    ErrorCode::ServerOverloaded,
                    "request queue is full; retry later",
                    static_cast<long>(250 * (backlog + 1))),
                opts.maxFrameBytes);
            continue;
        }
    }
}

void
ServeDaemon::workerLoop()
{
    for (;;) {
        auto req = std::make_shared<ActiveRequest>();
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [this] {
                return stopping || !queue.empty();
            });
            if (queue.empty()) {
                if (stopping)
                    return;
                continue;
            }
            req->fd = queue.front();
            queue.pop_front();
            active.push_back(req);
        }
        handleConnection(*req);
        {
            std::lock_guard<std::mutex> lock(mu);
            active.erase(
                std::remove(active.begin(), active.end(), req),
                active.end());
        }
        ::close(req->fd);
    }
}

void
ServeDaemon::handleConnection(ActiveRequest &self)
{
    const int fd = self.fd;
    static metrics::Counter &requests =
        metrics::counter("serve.requests");
    static metrics::Counter &protocol_errors =
        metrics::counter("serve.protocol_errors");
    static metrics::Histogram &latency =
        metrics::histogram("serve.request_ns");

    auto protocolError = [&](const std::string &message) {
        protocol_errors.inc();
        writeFrame(fd, errorFramePayload(ErrorCode::ProtocolError, message),
                   opts.ioTimeoutMs);
    };

    ReadOutcome frame =
        readFrame(fd, opts.maxFrameBytes, opts.ioTimeoutMs);
    switch (frame.kind) {
      case ReadOutcome::Kind::Frame:
        break;
      case ReadOutcome::Kind::Eof:
        return; // connected and left; not an error
      case ReadOutcome::Kind::Timeout:
      case ReadOutcome::Kind::IoError:
        protocol_errors.inc();
        return; // nothing sane to answer on a dead/stalled stream
      case ReadOutcome::Kind::Malformed:
        protocolError(frame.error);
        return;
    }

    requests.inc();
    metrics::ScopedTimer timer(latency);

    json::Value req;
    std::string perr;
    if (!json::parse(frame.payload, req, &perr) || !req.isObject()) {
        protocolError("request is not a JSON object"
                      + (perr.empty() ? std::string() : ": " + perr));
        return;
    }
    const json::Value *type = req.find("type");
    const std::string kind =
        type && type->isString() ? type->asString() : "";
    // A request is its type and, for a run, the spec's text: a run
    // takes every setting from its spec, so any other key is refused
    // rather than read as a second way to set one.
    for (const auto &member : req.asObject())
        if (member.first != "type"
            && !(kind == "run" && member.first == "spec_text")) {
            protocolError("request key \"" + member.first
                          + "\" is not accepted");
            return;
        }

    if (kind == "ping") {
        json::Value o = json::Value::makeObject();
        o.set("type", json::Value("pong"));
        writeFrame(fd, json::dump(o), opts.ioTimeoutMs);
        return;
    }
    if (kind == "health") {
        handleHealth(fd);
        return;
    }
    if (kind == "run") {
        const json::Value *spec_text = req.find("spec_text");
        if (!spec_text || !spec_text->isString())
            protocolError("run request carries no \"spec_text\" string");
        else
            handleRun(self, spec_text->asString());
        return;
    }
    protocolError("unknown request type \"" + kind + "\"");
}

sim::Runner &
ServeDaemon::residentRunner(const driver::ExperimentSpec &spec,
                            std::size_t records)
{
    // The key mirrors exactly what baseConfig() + the record count
    // feed the Runner: same tuple, same traces and baselines.
    std::string key = spec.l1;
    key += "/ch" + std::to_string(spec.dramChannels);
    key += "/w"
        + (spec.warmupRecords == driver::ExperimentSpec::kWarmupDefault
               ? std::string("default")
               : std::to_string(spec.warmupRecords));
    key += "/r" + std::to_string(records);
    if (spec.sampling.enabled) {
        key += "/s" + std::to_string(spec.sampling.warmupRecords)
            + ":" + std::to_string(spec.sampling.windowRecords) + ":"
            + std::to_string(spec.sampling.intervalRecords) + ":"
            + std::to_string(spec.sampling.offset);
    }
    auto it = runners.find(key);
    if (it != runners.end())
        return *it->second;
    auto r =
        std::make_unique<sim::Runner>(spec.baseConfig(), records);
    if (cache && spec.traceCache)
        r->setTraceCache(cache);
    sim::Runner &ref = *r;
    runners.emplace(std::move(key), std::move(r));
    metrics::counter("serve.runners_created").inc();
    return ref;
}

void
ServeDaemon::handleRun(ActiveRequest &self, const std::string &spec_text)
{
    const int fd = self.fd;
    driver::ExperimentSpec spec;
    try {
        json::Value doc;
        std::string perr;
        if (!json::parse(spec_text, doc, &perr))
            throw driver::SpecError("spec_text: " + perr);
        spec = driver::ExperimentSpec::fromJson(doc);
    } catch (const Error &e) {
        // Containment: a bad spec answers THIS client and changes
        // nothing else — same taxonomy code the CLI would exit with.
        writeFrame(fd, errorFramePayload(e.code(), e.what()),
                   opts.ioTimeoutMs);
        return;
    }

    // The daemon runs the spec as written: its records, threads,
    // "keep_going" and "deadline_s" apply unchanged.
    driver::DriverOptions dopts;
    dopts.resetMetrics = false;
    dopts.shutdown = &self.token;
    {
        std::lock_guard<std::mutex> lock(mu);
        dopts.runner = &residentRunner(spec, spec.records);
    }

    driver::ExperimentDriver drv(spec, dopts);
    driver::ExperimentReport report;
    try {
        report = drv.run();
    } catch (const Error &e) {
        writeFrame(fd, errorFramePayload(e.code(), e.what()),
                   opts.ioTimeoutMs);
        return;
    } catch (const std::exception &e) {
        writeFrame(fd,
                   errorFramePayload(ErrorCode::Internal, e.what()),
                   opts.ioTimeoutMs);
        return;
    }

    json::Value o = json::Value::makeObject();
    o.set("type", json::Value("result"));
    o.set("exit_code",
          json::Value(driver::exitCodeForReport(
              report, drv.keepGoingEnabled())));
    o.set("failed_jobs",
          json::Value(static_cast<double>(report.failedJobs)));
    o.set("interrupted", json::Value(report.interrupted));
    o.set("wall_seconds", json::Value(report.meta.wallSeconds));
    // The daemon ships the rendered bytes back instead of touching
    // the filesystem: the client owns where (and whether) they land.
    json::Value sinks = json::Value::makeArray();
    for (const auto &out : report.outputs) {
        json::Value s = json::Value::makeObject();
        s.set("type", json::Value(driver::sinkKindName(out.sink.kind)));
        s.set("path", json::Value(out.sink.path));
        s.set("content", json::Value(out.bytes));
        sinks.push(std::move(s));
    }
    o.set("sinks", std::move(sinks));

    if (self.disconnected) {
        // The monitor already saw the peer go; writing would only
        // burn the I/O timeout against a dead socket.
        return;
    }
    writeFrame(fd, json::dump(o), opts.ioTimeoutMs);
}

void
ServeDaemon::handleHealth(int fd)
{
    json::Value o = json::Value::makeObject();
    o.set("type", json::Value("health"));
    o.set("pid",
          json::Value(static_cast<double>(::getpid())));
    const double uptime =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - startTime)
            .count();
    o.set("uptime_s", json::Value(uptime));
    o.set("rss_mb", json::Value(static_cast<double>(currentRssMb())));
    {
        std::lock_guard<std::mutex> lock(mu);
        o.set("active",
              json::Value(static_cast<double>(active.size())));
        o.set("queued",
              json::Value(static_cast<double>(queue.size())));
        json::Value pool = json::Value::makeArray();
        for (const auto &[key, runner] : runners) {
            json::Value r = json::Value::makeObject();
            r.set("config", json::Value(key));
            r.set("trace_bytes",
                  json::Value(static_cast<double>(
                      runner->residentTraceBytes())));
            json::Value traces = json::Value::makeArray();
            for (const auto &t : runner->residentTraces()) {
                json::Value tv = json::Value::makeObject();
                tv.set("workload", json::Value(t.workload));
                tv.set("bytes", json::Value(
                                    static_cast<double>(t.bytes)));
                tv.set("in_use", json::Value(t.inUse));
                traces.push(std::move(tv));
            }
            r.set("traces", std::move(traces));
            pool.push(std::move(r));
        }
        o.set("resident", std::move(pool));
    }
    const metrics::RegistrySnapshot snap =
        metrics::Registry::instance().snapshot();
    json::Value counters = json::Value::makeObject();
    for (const auto &c : snap.counters)
        counters.set(c.name, json::Value(c.value));
    o.set("counters", std::move(counters));
    json::Value hists = json::Value::makeObject();
    for (const auto &h : snap.histograms) {
        json::Value hv = json::Value::makeObject();
        hv.set("count", json::Value(h.snap.count));
        hv.set("sum", json::Value(h.snap.sum));
        hv.set("min", json::Value(h.snap.min));
        hv.set("max", json::Value(h.snap.max));
        hists.set(h.name, std::move(hv));
    }
    o.set("histograms", std::move(hists));
    writeFrame(fd, json::dump(o), opts.ioTimeoutMs);
}

void
ServeDaemon::monitorLoop()
{
    static metrics::Counter &disconnects =
        metrics::counter("serve.disconnects");
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu);
            if (cv.wait_for(lock, std::chrono::milliseconds(100),
                            [this] { return stopping; }))
                return;
        }
        // Disconnect detection: a client waiting for its result
        // sends nothing, so readable + MSG_PEEK == 0 is exactly
        // "peer closed". The request's token fires and its jobs
        // unwind within a bounded number of records.
        std::vector<std::shared_ptr<ActiveRequest>> snapshot;
        {
            std::lock_guard<std::mutex> lock(mu);
            snapshot = active;
        }
        for (const auto &a : snapshot) {
            if (a->disconnected)
                continue;
            struct pollfd pfd;
            pfd.fd = a->fd;
            pfd.events = POLLIN;
            pfd.revents = 0;
            if (::poll(&pfd, 1, 0) <= 0)
                continue;
            char c;
            const ssize_t n = ::recv(a->fd, &c, 1,
                                     MSG_PEEK | MSG_DONTWAIT);
            if (n == 0
                || (pfd.revents & (POLLERR | POLLHUP)) != 0) {
                a->disconnected = true;
                a->token.cancel();
                disconnects.inc();
                prophet_infof("serve: client gone mid-request; "
                              "cancelling its jobs");
            }
        }
        maybeEvict();
    }
}

void
ServeDaemon::maybeEvict()
{
    if (opts.maxRssMb == 0)
        return;
    static metrics::Counter &evictions =
        metrics::counter("serve.evictions");
    // Eviction and admission share mu: a request cannot enter
    // `active` while traces are being dropped, and a trace that a
    // straggling shared_ptr still pins is skipped.
    std::lock_guard<std::mutex> lock(mu);
    if (!active.empty() || !queue.empty())
        return;
    while (currentRssMb() > opts.maxRssMb) {
        // Use ticks are process-wide, so the smallest is the least
        // recently used idle trace across every configuration.
        sim::Runner *owner = nullptr;
        sim::Runner::ResidentTrace victim;
        for (auto &[key, runner] : runners)
            for (auto &t : runner->residentTraces())
                if (!t.inUse
                    && (!owner || t.lastUse < victim.lastUse)) {
                    owner = runner.get();
                    victim = std::move(t);
                }
        if (!owner)
            return; // nothing left to drop; the watermark stands
        prophet_infof("serve: evicting resident trace %s (%zu bytes)",
                      victim.workload.c_str(), victim.bytes);
        owner->releaseTrace(victim.workload);
        evictions.inc();
    }
}

std::size_t
ServeDaemon::activeRequests()
{
    std::lock_guard<std::mutex> lock(mu);
    return active.size();
}

void
ServeDaemon::drainAndStop()
{
    if (!started || stopped)
        return;
    stopped = true;
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cv.notify_all();
    acceptor.join();
    ::close(listenFd);
    listenFd = -1;

    // Queued-but-unstarted connections are shed honestly: a
    // cancelled frame, not a vanished daemon.
    std::deque<int> orphaned;
    {
        std::lock_guard<std::mutex> lock(mu);
        orphaned.swap(queue);
    }
    for (int fd : orphaned)
        refuseConnection(fd,
                         errorFramePayload(ErrorCode::Cancelled,
                                           "daemon is draining"),
                         opts.maxFrameBytes);

    // Grace window: in-flight requests finish on their own terms;
    // past it their tokens fire and they unwind as interrupted —
    // each still gets its (partial) result frame flushed.
    const auto grace_end = std::chrono::steady_clock::now()
        + std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(opts.drainGraceS));
    while (activeRequests() > 0
           && std::chrono::steady_clock::now() < grace_end)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &a : active)
            a->token.cancel();
    }
    cv.notify_all();
    for (auto &w : workers)
        w.join();
    workers.clear();
    monitor.join();

    ::unlink(opts.socketPath.c_str());
    if (pidfileFd >= 0) {
        ::unlink(pidfilePath.c_str());
        ::close(pidfileFd); // lock released after the name is gone
        pidfileFd = -1;
    }
    prophet_infof("serve: drained and stopped");
}

} // namespace prophet::serve
