/**
 * @file
 * End-to-end tests for the resident serve daemon, exercising the
 * whole robustness envelope promised in serve/server.hh: stale-socket
 * recovery and live-socket refusal, request/response equivalence with
 * the standalone driver (byte-for-byte), resident-trace reuse across
 * requests, fault containment (malformed frames, bad specs, oversize
 * payloads, injected mid-run failures — each answered with a
 * structured frame while the daemon keeps serving), admission-control
 * shedding with a retry hint, client-disconnect slot reclamation,
 * per-request deadlines, RSS-watermark eviction, and graceful drain.
 *
 * The metrics registry is process-wide and the daemon deliberately
 * never resets it, so every assertion on a serve.* counter reads a
 * delta around the action, not an absolute value.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/fault_injection.hh"
#include "common/metrics.hh"
#include "driver/driver.hh"
#include "driver/json.hh"
#include "driver/sink.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace fs = std::filesystem;

namespace prophet::serve
{
namespace
{

namespace json = driver::json;

/** Short traces keep the round-trips fast. */
constexpr std::size_t kRecords = 20'000;

std::uint64_t
counterValue(const std::string &name)
{
    return metrics::counter(name).value();
}

/** A fresh socket path per test: stale state cannot leak across. */
std::string
freshSocketPath()
{
    static int n = 0;
    return "/tmp/prophet_serve_" + std::to_string(::getpid()) + "_"
        + std::to_string(++n) + ".sock";
}

/** Spec text shared by the daemon and the standalone reference. */
std::string
specText(std::size_t records = kRecords)
{
    return "{\"name\": \"serve-e2e\","
           " \"workloads\": [\"mcf\"],"
           " \"pipelines\": [\"baseline\", \"triangel\"],"
           " \"metrics\": [\"ipc\", \"speedup\"],"
           " \"records\": " + std::to_string(records) + ","
           " \"trace_cache\": false,"
           " \"sinks\": [{\"type\": \"csv\","
           "              \"path\": \"out.csv\"}]}";
}

/** A {"type":"run"} request frame payload around @p spec_text. */
std::string
runRequest(const std::string &spec_text, double deadline_s = 0.0)
{
    json::Value req = json::Value::makeObject();
    req.set("type", json::Value("run"));
    req.set("spec_text", json::Value(spec_text));
    if (deadline_s > 0.0)
        req.set("deadline_s", json::Value(deadline_s));
    return json::dump(req);
}

/** Exchange @p payload with the daemon; ASSERT-parses the reply. */
json::Value
roundTrip(const std::string &socket_path, const std::string &payload,
         int timeout_ms = 30000)
{
    std::string response, err;
    EXPECT_TRUE(clientExchange(socket_path, payload, response, err,
                               timeout_ms))
        << err;
    json::Value resp;
    std::string perr;
    EXPECT_TRUE(json::parse(response, resp, &perr)) << perr;
    return resp;
}

std::string
frameType(const json::Value &resp)
{
    const json::Value *t = resp.find("type");
    return t && t->isString() ? t->asString() : "";
}

std::string
errorCodeOf(const json::Value &resp)
{
    const json::Value *c = resp.find("code");
    return c && c->isString() ? c->asString() : "";
}

/** The one sink's rendered bytes from a result frame. */
std::string
sinkContent(const json::Value &result)
{
    const json::Value *sinks = result.find("sinks");
    EXPECT_TRUE(sinks && sinks->isArray()
                && sinks->asArray().size() == 1u);
    if (!sinks || !sinks->isArray() || sinks->asArray().empty())
        return "";
    const json::Value *content =
        sinks->asArray()[0].find("content");
    EXPECT_TRUE(content && content->isString());
    return content && content->isString() ? content->asString()
                                          : "";
}

/** Connect a raw fd to the daemon socket (tests drive half-open
 *  and mid-run-disconnect scenarios the client API never would). */
int
rawConnect(const std::string &path)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    EXPECT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(0, ::connect(fd,
                           reinterpret_cast<struct sockaddr *>(&addr),
                           sizeof(addr)))
        << std::strerror(errno);
    return fd;
}

/**
 * clientRun against a stub listener on @p path that answers the run
 * request with @p frame; returns clientRun's exit code.
 */
int
clientRunAgainstStub(const std::string &path, const std::string &frame,
                     const std::string &spec_path)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    EXPECT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd, 0);
    EXPECT_EQ(0, ::bind(listen_fd,
                        reinterpret_cast<struct sockaddr *>(&addr),
                        sizeof(addr)))
        << std::strerror(errno);
    EXPECT_EQ(0, ::listen(listen_fd, 1));
    std::thread stub([&] {
        struct pollfd pfd = {listen_fd, POLLIN, 0};
        if (::poll(&pfd, 1, 5000) <= 0)
            return;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            return;
        readFrame(fd, kDefaultMaxFrameBytes, 5000);
        writeFrame(fd, frame, 5000);
        ::close(fd);
    });
    const int rc = clientRun(path, spec_path, 0.0, 5000);
    stub.join();
    ::close(listen_fd);
    ::unlink(path.c_str());
    return rc;
}

/** Poll @p cond up to @p budget; true when it held in time. */
bool
eventually(const std::function<bool()> &cond,
           std::chrono::milliseconds budget =
               std::chrono::milliseconds(15000))
{
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
        if (cond())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return cond();
}

class ServeDaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::reset();
        sock = freshSocketPath();
        opts.socketPath = sock;
        opts.workers = 2;
        opts.traceCache = false; // resident Runner reuse is the cache
    }

    void TearDown() override { fault::reset(); }

    std::string sock;
    ServeOptions opts;
};

TEST_F(ServeDaemonTest, StartRecoversStaleSocketFile)
{
    // A crashed daemon leaves the socket file behind but not the
    // pidfile lock; a restart must reclaim the path, not fail with
    // "address in use".
    { std::ofstream stale(sock); stale << "stale"; }
    ASSERT_TRUE(fs::exists(sock));
    ServeDaemon daemon(opts);
    ASSERT_NO_THROW(daemon.start());
    json::Value resp = roundTrip(sock, "{\"type\":\"ping\"}");
    EXPECT_EQ(frameType(resp), "pong");
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, SecondDaemonOnSameSocketIsRefused)
{
    ServeDaemon first(opts);
    first.start();
    ServeDaemon second(opts);
    try {
        second.start();
        FAIL() << "second start() on a live socket must throw";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::SocketBusy);
        EXPECT_NE(std::string(e.what()).find("pid"),
                  std::string::npos);
    }
    // The loser must not have torn down the winner's socket.
    json::Value resp = roundTrip(sock, "{\"type\":\"ping\"}");
    EXPECT_EQ(frameType(resp), "pong");
    first.drainAndStop();
}

TEST_F(ServeDaemonTest, RunMatchesStandaloneDriverByteForByte)
{
    ServeDaemon daemon(opts);
    daemon.start();
    json::Value resp = roundTrip(sock, runRequest(specText()));
    ASSERT_EQ(frameType(resp), "result") << errorCodeOf(resp);
    const json::Value *ec = resp.find("exit_code");
    ASSERT_TRUE(ec && ec->isNumber());
    EXPECT_EQ(static_cast<int>(ec->asNumber()), 0);
    const std::string served = sinkContent(resp);
    ASSERT_FALSE(served.empty());
    daemon.drainAndStop();

    // Ground truth: the same spec through the standalone driver,
    // whose rendered outputs the daemon ships.
    json::Value doc;
    ASSERT_TRUE(json::parse(specText(), doc, nullptr));
    driver::DriverOptions dopts;
    dopts.resetMetrics = false; // keep serve.* deltas readable
    dopts.traceCache = false;
    driver::ExperimentDriver drv(
        driver::ExperimentSpec::fromJson(doc), dopts);
    const driver::ExperimentReport report = drv.run();
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.outputs.size(), 1u);
    EXPECT_EQ(report.outputs[0].sink.kind,
              driver::SinkSpec::Kind::CsvFile);
    EXPECT_EQ(report.outputs[0].sink.path, "out.csv");
    EXPECT_EQ(served, report.outputs[0].bytes);
}

TEST_F(ServeDaemonTest, ReportsMatchStandaloneDriverByteForByte)
{
    // A report runs no jobs, but its text must still travel back
    // through the default table sink — not land on the daemon's own
    // stdout and leave the client with nothing to print. A trace
    // report reads its traces through the daemon's resident Runner
    // and prints the same bytes as the CLI.
    const std::pair<std::string, const char *> reports[] = {
        {"{\"name\": \"table1\", \"report\": \"system-config\"}",
         "== Table 1: System Configuration =="},
        {"{\"name\": \"fig8\", \"report\": \"markov-targets\","
         " \"workloads\": [\"mcf\", \"omnetpp\"], \"records\": "
             + std::to_string(kRecords) + ", \"trace_cache\": false}",
         "\n== Figure 8: Markov target count distribution =="},
    };
    ServeDaemon daemon(opts);
    daemon.start();
    for (const auto &[text, heading] : reports) {
        SCOPED_TRACE(text);
        json::Value resp = roundTrip(sock, runRequest(text));
        ASSERT_EQ(frameType(resp), "result") << errorCodeOf(resp);
        const json::Value *ec = resp.find("exit_code");
        ASSERT_TRUE(ec && ec->isNumber());
        EXPECT_EQ(static_cast<int>(ec->asNumber()), 0);
        const std::string served = sinkContent(resp);

        json::Value doc;
        ASSERT_TRUE(json::parse(text, doc, nullptr));
        driver::DriverOptions dopts;
        dopts.resetMetrics = false;
        driver::ExperimentDriver drv(
            driver::ExperimentSpec::fromJson(doc), dopts);
        const driver::ExperimentReport report = drv.run();
        ASSERT_TRUE(report.ok());
        ASSERT_EQ(report.outputs.size(), 1u);
        EXPECT_EQ(report.outputs[0].sink.kind,
                  driver::SinkSpec::Kind::Table);
        const std::string &direct = report.outputs[0].bytes;
        EXPECT_EQ(direct.rfind(heading, 0), 0u) << direct;
        EXPECT_EQ(served, direct);
    }
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, WarmRepeatHitsResidentTraces)
{
    ServeDaemon daemon(opts);
    daemon.start();
    const std::uint64_t hits0 =
        counterValue("runner.trace_resident_hits");
    const std::uint64_t created0 =
        counterValue("serve.runners_created");

    json::Value first = roundTrip(sock, runRequest(specText()));
    ASSERT_EQ(frameType(first), "result");
    json::Value second = roundTrip(sock, runRequest(specText()));
    ASSERT_EQ(frameType(second), "result");
    EXPECT_EQ(sinkContent(first), sinkContent(second));

    // Same base-config tuple: one resident runner, and the repeat
    // request's trace loads were all satisfied from residency.
    EXPECT_EQ(counterValue("serve.runners_created") - created0, 1u);
    EXPECT_GT(counterValue("runner.trace_resident_hits"), hits0);

    // The health report names the resident workload.
    json::Value health = roundTrip(sock, "{\"type\":\"health\"}");
    ASSERT_EQ(frameType(health), "health");
    const json::Value *resident = health.find("resident");
    ASSERT_TRUE(resident && resident->isArray());
    ASSERT_EQ(resident->asArray().size(), 1u);
    const json::Value *traces =
        resident->asArray()[0].find("traces");
    ASSERT_TRUE(traces && traces->isArray());
    bool saw_mcf = false;
    for (const auto &t : traces->asArray())
        if (t.find("workload")
            && t.find("workload")->asString() == "mcf")
            saw_mcf = true;
    EXPECT_TRUE(saw_mcf);
    const json::Value *counters = health.find("counters");
    ASSERT_TRUE(counters && counters->isObject());
    EXPECT_NE(counters->find("serve.requests"), nullptr);
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, ConcurrentClientsGetIdenticalResults)
{
    opts.workers = 4;
    ServeDaemon daemon(opts);
    daemon.start();
    constexpr int kClients = 4;
    std::vector<std::string> contents(kClients);
    std::vector<int> exit_codes(kClients, -1);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            std::string response, err;
            if (!clientExchange(sock, runRequest(specText()),
                                response, err, 60000))
                return;
            json::Value resp;
            if (!json::parse(response, resp, nullptr))
                return;
            if (frameType(resp) != "result")
                return;
            const json::Value *ec = resp.find("exit_code");
            exit_codes[i] = ec && ec->isNumber()
                ? static_cast<int>(ec->asNumber())
                : -1;
            contents[i] = sinkContent(resp);
        });
    for (auto &t : clients)
        t.join();
    for (int i = 0; i < kClients; ++i) {
        EXPECT_EQ(exit_codes[i], 0) << "client " << i;
        EXPECT_FALSE(contents[i].empty()) << "client " << i;
        EXPECT_EQ(contents[i], contents[0]) << "client " << i;
    }
    EXPECT_TRUE(eventually([&] {
        return daemon.activeRequests() == 0;
    }));
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, MalformedRequestsAreContained)
{
    ServeDaemon daemon(opts);
    daemon.start();

    // Valid frame, invalid JSON payload.
    json::Value resp = roundTrip(sock, "this is not json");
    EXPECT_EQ(frameType(resp), "error");
    EXPECT_EQ(errorCodeOf(resp), "protocol-error");

    // Valid JSON, unknown request type.
    resp = roundTrip(sock, "{\"type\":\"frobnicate\"}");
    EXPECT_EQ(frameType(resp), "error");
    EXPECT_EQ(errorCodeOf(resp), "protocol-error");

    // A run request carrying neither spec nor spec_text.
    resp = roundTrip(sock, "{\"type\":\"run\"}");
    EXPECT_EQ(frameType(resp), "error");
    EXPECT_EQ(errorCodeOf(resp), "protocol-error");

    // An unknown spec field fails spec validation, not the daemon.
    resp = roundTrip(
        sock, runRequest("{\"bogus_knob\": 1, \"workloads\": []}"));
    EXPECT_EQ(frameType(resp), "error");
    EXPECT_EQ(errorCodeOf(resp), "spec-parse");
    const json::Value *msg = resp.find("message");
    ASSERT_TRUE(msg && msg->isString());
    EXPECT_NE(msg->asString().find("bogus_knob"),
              std::string::npos);

    // After all four failures the daemon still serves.
    resp = roundTrip(sock, "{\"type\":\"ping\"}");
    EXPECT_EQ(frameType(resp), "pong");
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, UnbuildableMvbIsRejectedAndDaemonServesOn)
{
    ServeDaemon daemon(opts);
    daemon.start();
    // An MVB geometry the buffer cannot build, or priority bits the
    // Analyzer cannot hold, would abort the whole daemon on a
    // constructor assertion; spec validation turns it into an error
    // frame for this request alone.
    for (const char *param : {"\"mvb_candidates\": 8",
                              "\"mvb_entries\": 1000", "\"n_bits\": 5"}) {
        SCOPED_TRACE(param);
        json::Value resp = roundTrip(
            sock,
            runRequest(std::string("{\"workloads\": [\"mcf\"],"
                                   " \"records\": 20000,"
                                   " \"trace_cache\": false,"
                                   " \"pipelines\": [{\"name\":"
                                   " \"prophet\", ")
                       + param + "}]}"));
        EXPECT_EQ(frameType(resp), "error");
        EXPECT_EQ(errorCodeOf(resp), "spec-parse");
        resp = roundTrip(sock, "{\"type\":\"ping\"}");
        EXPECT_EQ(frameType(resp), "pong");
    }
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, PlruMetadataReplacementIsRejectedAndDaemonServesOn)
{
    ServeDaemon daemon(opts);
    daemon.start();
    // Tree-PLRU cannot build the Markov table's non-power-of-two
    // associativity and would abort the whole daemon; spec
    // validation turns it into an error frame for this request.
    json::Value resp = roundTrip(
        sock, runRequest("{\"workloads\": [\"mcf\"],"
                         " \"records\": 20000,"
                         " \"trace_cache\": false,"
                         " \"pipelines\": [{\"name\": \"triage\","
                         " \"meta_replacement\": \"plru\"}]}"));
    EXPECT_EQ(frameType(resp), "error");
    EXPECT_EQ(errorCodeOf(resp), "spec-parse");
    resp = roundTrip(sock, runRequest(specText()));
    EXPECT_EQ(frameType(resp), "result") << errorCodeOf(resp);
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, OversizePayloadShedBeforeParsing)
{
    opts.maxFrameBytes = 1024;
    ServeDaemon daemon(opts);
    daemon.start();
    // 4 KiB of padding blows the 1 KiB cap: the decoder classifies
    // it from the header alone and the daemon answers with a
    // structured frame instead of reading (or allocating) the body.
    std::string fat = "{\"type\":\"ping\",\"pad\":\""
        + std::string(4096, 'x') + "\"}";
    json::Value resp = roundTrip(sock, fat);
    EXPECT_EQ(frameType(resp), "error");
    EXPECT_EQ(errorCodeOf(resp), "protocol-error");
    const json::Value *msg = resp.find("message");
    ASSERT_TRUE(msg && msg->isString());
    EXPECT_NE(msg->asString().find("cap"), std::string::npos);

    resp = roundTrip(sock, "{\"type\":\"ping\"}");
    EXPECT_EQ(frameType(resp), "pong");
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, MidRunJobFaultYieldsFailedResultFrame)
{
    ServeDaemon daemon(opts);
    daemon.start();
    fault::arm("job.mcf/triangel", 1, 1);
    json::Value resp = roundTrip(sock, runRequest(specText()));
    fault::reset();
    // The failure is the request's, not the daemon's: a result
    // frame with the documented runtime-failure exit code.
    ASSERT_EQ(frameType(resp), "result");
    const json::Value *ec = resp.find("exit_code");
    ASSERT_TRUE(ec && ec->isNumber());
    EXPECT_EQ(static_cast<int>(ec->asNumber()), 4);
    const json::Value *failed = resp.find("failed_jobs");
    ASSERT_TRUE(failed && failed->isNumber());
    EXPECT_GE(failed->asNumber(), 1.0);

    // The same spec immediately succeeds on the same runner.
    resp = roundTrip(sock, runRequest(specText()));
    ASSERT_EQ(frameType(resp), "result");
    EXPECT_EQ(static_cast<int>(resp.find("exit_code")->asNumber()),
              0);
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, OverloadShedsWithRetryAfterHint)
{
    opts.workers = 1;
    opts.maxQueue = 1;
    opts.ioTimeoutMs = 10000;
    ServeDaemon daemon(opts);
    daemon.start();
    const std::uint64_t shed0 = counterValue("serve.rejected");

    // Occupy the only worker with an idle connection (it blocks in
    // readFrame until we close), then fill the one queue slot.
    const int busy = rawConnect(sock);
    ASSERT_TRUE(eventually(
        [&] { return daemon.activeRequests() == 1; }));
    const int queued = rawConnect(sock);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // The next arrival must be shed — a structured frame with a
    // retry hint, never a silent hang on a full daemon.
    json::Value resp = roundTrip(sock, "{\"type\":\"ping\"}", 5000);
    EXPECT_EQ(frameType(resp), "error");
    EXPECT_EQ(errorCodeOf(resp), "server-overloaded");
    const json::Value *retry = resp.find("retry_after_ms");
    ASSERT_TRUE(retry && retry->isNumber());
    EXPECT_GT(retry->asNumber(), 0.0);
    EXPECT_EQ(counterValue("serve.rejected") - shed0, 1u);

    ::close(busy);
    ::close(queued);
    EXPECT_TRUE(eventually(
        [&] { return daemon.activeRequests() == 0; }));
    // Capacity freed: admission works again.
    resp = roundTrip(sock, "{\"type\":\"ping\"}");
    EXPECT_EQ(frameType(resp), "pong");
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, DisconnectedClientFreesItsSlotMidRun)
{
    ServeDaemon daemon(opts);
    daemon.start();
    const std::uint64_t disc0 = counterValue("serve.disconnects");

    // A run big enough to still be in flight when the client dies.
    const int fd = rawConnect(sock);
    ASSERT_TRUE(writeFrame(fd, runRequest(specText(2'000'000)),
                           5000));
    ASSERT_TRUE(eventually(
        [&] { return daemon.activeRequests() == 1; }));
    ::close(fd);

    // The monitor notices the dead peer, fires the request's token,
    // and the slot drains without anyone reading the result.
    EXPECT_TRUE(eventually(
        [&] { return daemon.activeRequests() == 0; }));
    EXPECT_GE(counterValue("serve.disconnects") - disc0, 1u);

    // The worker the orphan occupied is back in rotation.
    json::Value resp = roundTrip(sock, "{\"type\":\"ping\"}");
    EXPECT_EQ(frameType(resp), "pong");
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, DrainInterruptsAnInFlightReport)
{
    // A trace report runs its passes under the request's token, so a
    // drain whose grace has run out stops it like a job matrix: the
    // client still gets its result frame, marked interrupted.
    opts.drainGraceS = 0.0;
    ServeDaemon daemon(opts);
    daemon.start();
    const int fd = rawConnect(sock);
    ASSERT_TRUE(writeFrame(
        fd,
        runRequest("{\"report\": \"pc-accuracy\","
                   " \"workloads\": [\"omnetpp\"],"
                   " \"records\": 2000000, \"trace_cache\": false}"),
        5000));
    ASSERT_TRUE(eventually(
        [&] { return daemon.activeRequests() == 1; }));
    daemon.drainAndStop();

    ReadOutcome got = readFrame(fd, kDefaultMaxFrameBytes, 30000);
    ::close(fd);
    ASSERT_EQ(got.kind, ReadOutcome::Kind::Frame) << got.error;
    json::Value resp;
    ASSERT_TRUE(json::parse(got.payload, resp, nullptr));
    ASSERT_EQ(frameType(resp), "result") << errorCodeOf(resp);
    EXPECT_TRUE(resp.find("interrupted")->asBool());
    EXPECT_EQ(static_cast<int>(resp.find("exit_code")->asNumber()), 6);
    EXPECT_EQ(sinkContent(resp).rfind("failures: 1 of 1 job", 0), 0u);
}

TEST_F(ServeDaemonTest, RequestDeadlineCancelsAsJobTimeout)
{
    ServeDaemon daemon(opts);
    daemon.start();
    // 2M records cannot finish in 1 ms: the per-request deadline
    // fires and the request reports its own failure while the
    // daemon (and its resident runner) stay healthy.
    json::Value resp = roundTrip(
        sock, runRequest(specText(2'000'000), 0.001), 60000);
    ASSERT_EQ(frameType(resp), "result") << errorCodeOf(resp);
    const json::Value *ec = resp.find("exit_code");
    ASSERT_TRUE(ec && ec->isNumber());
    EXPECT_EQ(static_cast<int>(ec->asNumber()), 4);
    EXPECT_GE(resp.find("failed_jobs")->asNumber(), 1.0);

    // A deadline-free request on the same daemon still completes.
    resp = roundTrip(sock, runRequest(specText()));
    ASSERT_EQ(frameType(resp), "result");
    EXPECT_EQ(static_cast<int>(resp.find("exit_code")->asNumber()),
              0);
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, OutOfRangeDeadlineIsRefusedAndDaemonServesOn)
{
    ServeDaemon daemon(opts);
    daemon.start();
    // The range the spec's "deadline_s" accepts: 1e10 s would
    // overflow the clock and expire at once, 0 and negatives are not
    // deadlines, and a string is not a number.
    for (const char *bad : {"1e10", "0", "-1", "\"5\""}) {
        SCOPED_TRACE(bad);
        json::Value req;
        ASSERT_TRUE(json::parse(runRequest(specText()), req, nullptr));
        json::Value value;
        ASSERT_TRUE(json::parse(bad, value, nullptr));
        req.set("deadline_s", std::move(value));
        json::Value resp = roundTrip(sock, json::dump(req));
        EXPECT_EQ(frameType(resp), "error");
        EXPECT_EQ(errorCodeOf(resp), "spec-parse");
    }
    json::Value resp = roundTrip(sock, runRequest(specText(), 600.0));
    ASSERT_EQ(frameType(resp), "result") << errorCodeOf(resp);
    EXPECT_EQ(static_cast<int>(resp.find("exit_code")->asNumber()),
              0);
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, ClientRunFailsOnASinkEntryItCannotWrite)
{
    const fs::path dir = sock + ".d";
    fs::create_directories(dir);
    const std::string spec_path = (dir / "spec.json").string();
    { std::ofstream spec(spec_path); spec << specText(); }
    auto resultFrame = [](json::Value entry) {
        json::Value sinks = json::Value::makeArray();
        sinks.push(std::move(entry));
        json::Value o = json::Value::makeObject();
        o.set("type", json::Value("result"));
        o.set("exit_code", json::Value(0));
        o.set("failed_jobs", json::Value(0.0));
        o.set("sinks", std::move(sinks));
        return json::dump(o);
    };
    auto entry = [](const char *type, const std::string &path,
                    const char *content) {
        json::Value s = json::Value::makeObject();
        s.set("type", json::Value(type));
        s.set("path", json::Value(path));
        if (content)
            s.set("content", json::Value(content));
        return s;
    };

    // An unknown type is refused, not written under its path.
    const std::string xml = (dir / "out.xml").string();
    EXPECT_EQ(clientRunAgainstStub(
                  sock, resultFrame(entry("xml", xml, "<r/>")),
                  spec_path),
              4);
    EXPECT_FALSE(fs::exists(xml));

    // Missing content, and a file sink without a path.
    const std::string csv = (dir / "out.csv").string();
    EXPECT_EQ(clientRunAgainstStub(
                  sock, resultFrame(entry("csv", csv, nullptr)),
                  spec_path),
              4);
    EXPECT_FALSE(fs::exists(csv));
    EXPECT_EQ(clientRunAgainstStub(
                  sock, resultFrame(entry("json", "", "{}")),
                  spec_path),
              4);

    // A well-formed entry lands at its path, byte for byte.
    EXPECT_EQ(clientRunAgainstStub(
                  sock, resultFrame(entry("csv", csv, "a,b\n1,2\n")),
                  spec_path),
              0);
    std::ifstream in(csv, std::ios::binary);
    std::string written((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(written, "a,b\n1,2\n");
    fs::remove_all(dir);
}

TEST_F(ServeDaemonTest, RssWatermarkEvictsIdleTraces)
{
    opts.maxRssMb = 1; // any real process sits above 1 MiB
    ServeDaemon daemon(opts);
    daemon.start();
    const std::uint64_t evict0 = counterValue("serve.evictions");

    json::Value resp = roundTrip(sock, runRequest(specText()));
    ASSERT_EQ(frameType(resp), "result");
    // Idle + over the watermark: the monitor evicts the resident
    // traces LRU-first.
    EXPECT_TRUE(eventually([&] {
        return counterValue("serve.evictions") > evict0;
    }));

    // Eviction degrades warmth, not correctness: the next request
    // reloads what it needs and succeeds.
    resp = roundTrip(sock, runRequest(specText()));
    ASSERT_EQ(frameType(resp), "result");
    EXPECT_EQ(static_cast<int>(resp.find("exit_code")->asNumber()),
              0);
    daemon.drainAndStop();
}

TEST_F(ServeDaemonTest, DrainRemovesSocketAndPidfileAndIsIdempotent)
{
    ServeDaemon daemon(opts);
    daemon.start();
    ASSERT_TRUE(fs::exists(sock));
    ASSERT_TRUE(fs::exists(sock + ".pid"));
    daemon.drainAndStop();
    EXPECT_FALSE(fs::exists(sock));
    EXPECT_FALSE(fs::exists(sock + ".pid"));
    // Second drain is a no-op, and the path is free for a restart.
    daemon.drainAndStop();
    ServeDaemon next(opts);
    ASSERT_NO_THROW(next.start());
    json::Value resp = roundTrip(sock, "{\"type\":\"ping\"}");
    EXPECT_EQ(frameType(resp), "pong");
    next.drainAndStop();
}

} // anonymous namespace
} // namespace prophet::serve
