/**
 * @file
 * The `prophet` CLI: the single entry point the declarative
 * experiment layer exposes. usage() prints every command's synopsis:
 * run, list-workloads, list-pipelines, trace-cache warm|clear|stats,
 * serve, and client run|health|ping.
 *
 * `run` executes a spec and writes its sinks; CLI flags
 * override the spec's thread/record counts and failure policy.
 * `trace-cache warm` pre-generates the traces a spec (or an explicit
 * workload list) needs, so subsequent runs skip generation. `serve`
 * keeps traces resident for `client run` requests.
 *
 * Every value flag takes `--flag VALUE` or `--flag=VALUE`. Each
 * command takes only the flags kCommandFlags lists for it; any other
 * flag exits 2 instead of being silently ignored.
 *
 * Exit codes (documented in --help): 0 success, 2 usage error,
 * 3 spec parse/validation error, 4 runtime failure (a job or sink
 * failed and the run could not complete fully under fail-fast),
 * 5 partial failure (--keep-going: some jobs failed, the rest
 * completed and the partial results were written), 6 interrupted
 * (SIGINT/SIGTERM drained the run; completed jobs were journaled
 * when --resume/--journal was on, so rerunning with --resume
 * continues where it stopped).
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.hh"
#include "common/exit_codes.hh"
#include "driver/driver.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/pipelines.hh"
#include "sim/sweep.hh"
#include "workloads/registry.hh"

namespace
{

using namespace prophet;

/**
 * Graceful-shutdown plumbing for `prophet run`: the handler fires the
 * driver's shutdown token (CancellationToken::cancel is
 * async-signal-safe — one relaxed atomic store) and records which
 * signal arrived so cmdRun can exit 6. SA_RESETHAND restores the
 * default disposition, so a second ^C force-kills a run whose drain
 * is stuck.
 */
CancellationToken gShutdown;
volatile std::sig_atomic_t gSignal = 0;

extern "C" void
onShutdownSignal(int sig)
{
    gSignal = sig;
    gShutdown.cancel();
}

void
installShutdownHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onShutdownSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: prophet <command> [args]\n"
        "\n"
        "  run <spec.json> [--threads N] [--records N]\n"
        "      [--no-trace-cache] [--trace-cache-dir DIR]\n"
        "      [--keep-going | --fail-fast] [--progress]\n"
        "      [--metrics-out FILE] [--trace-out FILE]\n"
        "      [--resume | --journal FILE] [--job-timeout SEC]\n"
        "  list-workloads\n"
        "  list-pipelines\n"
        "  trace-cache warm <spec.json | workload...>\n"
        "      [--threads N] [--records N] [--trace-cache-dir DIR]\n"
        "  trace-cache clear [--trace-cache-dir DIR]\n"
        "  trace-cache stats [--trace-cache-dir DIR]\n"
        "  serve --socket PATH [--serve-workers N]\n"
        "      [--max-queue N] [--max-frame-bytes N]\n"
        "      [--io-timeout-ms N] [--request-deadline SEC]\n"
        "      [--max-rss-mb N] [--drain-grace SEC]\n"
        "      [--no-trace-cache] [--trace-cache-dir DIR]\n"
        "  client run <spec.json> --socket PATH [--deadline SEC]\n"
        "      [--timeout-ms N]\n"
        "  client health --socket PATH [--timeout-ms N]\n"
        "  client ping --socket PATH [--timeout-ms N]\n"
        "\n"
        "Every value flag takes --flag VALUE or --flag=VALUE. A flag\n"
        "its command does not take exits 2.\n"
        "\n"
        "observability (run; all off by default — outputs are\n"
        "byte-identical to a run without these flags):\n"
        "  --progress         live jobs/rate/ETA line on stderr\n"
        "  --metrics-out FILE write a JSON metrics report (phase\n"
        "                     timings, counters, per-job timings,\n"
        "                     peak RSS, thread utilization)\n"
        "  --trace-out FILE   write a Chrome trace_event span trace\n"
        "                     (open in https://ui.perfetto.dev)\n"
        "  PROPHET_LOG=error|warn|info|debug filters stderr logging\n"
        "                     (default info)\n"
        "\n"
        "failure policy (run):\n"
        "  --keep-going   run every job even after one fails; render\n"
        "                 partial results with failed cells marked\n"
        "  --fail-fast    cancel remaining jobs on the first failure\n"
        "                 (the default unless the spec sets\n"
        "                 \"keep_going\": true)\n"
        "\n"
        "long-running sweeps (run):\n"
        "  --resume       checkpoint each completed job to\n"
        "                 <spec>.journal and replay completed jobs\n"
        "                 from it on restart (output is\n"
        "                 byte-identical to an uninterrupted run)\n"
        "  --journal FILE same, with an explicit journal path\n"
        "  --job-timeout SEC\n"
        "                 per-job deadline: an overrunning job is\n"
        "                 cancelled at its next poll, recorded as a\n"
        "                 transient timeout, and retried; overrides\n"
        "                 the spec's \"deadline_s\" (0 disables both)\n"
        "  SIGINT/SIGTERM drain in-flight jobs, flush the journal\n"
        "                 and partial sinks, and exit 6; a second\n"
        "                 signal force-kills\n"
        "\n"
        "serving (serve / client; protocol in README \"Serving\"):\n"
        "  serve keeps traces and baselines resident, so a repeated\n"
        "  spec skips every trace load; client run is a drop-in for\n"
        "  run against a warm daemon (same sinks, same exit codes).\n"
        "  SIGINT/SIGTERM drain the daemon: stop accepting, finish\n"
        "  or cancel in-flight requests, flush, exit 6.\n"
        "\n");
    // One shared block (common/exit_codes.hh): run, serve, and
    // client compute their exits from the same enum this prints.
    std::fputs(exitCodesHelp(), stderr);
    return 2;
}

/** Shared flag state across subcommands. */
struct Flags
{
    driver::DriverOptions opts;
    std::vector<std::string> positional;

    /** --resume: journal at <spec>.journal (path known post-parse). */
    bool resume = false;

    // serve / client flags (refused by the other commands).
    std::string socketPath;          ///< --socket (required)
    serve::ServeOptions serveOpts;   ///< daemon knobs
    double clientDeadlineS = 0.0;    ///< client run --deadline
    int clientTimeoutMs = -1;        ///< client --timeout-ms
};

/**
 * The flags each command takes, keyed by its full name ("run",
 * "trace-cache warm", "client ping", ...). A flag its command does
 * not take is refused: it would otherwise be parsed and ignored.
 */
const std::map<std::string, std::vector<std::string>> kCommandFlags = {
    {"run",
     {"--threads", "--records", "--no-trace-cache", "--trace-cache-dir",
      "--keep-going", "--fail-fast", "--progress", "--metrics-out",
      "--trace-out", "--resume", "--journal", "--job-timeout"}},
    {"list-workloads", {}},
    {"list-pipelines", {}},
    {"trace-cache warm", {"--threads", "--records", "--trace-cache-dir"}},
    {"trace-cache clear", {"--trace-cache-dir"}},
    {"trace-cache stats", {"--trace-cache-dir"}},
    {"serve",
     {"--socket", "--serve-workers", "--max-queue", "--max-frame-bytes",
      "--io-timeout-ms", "--request-deadline", "--max-rss-mb",
      "--drain-grace", "--no-trace-cache", "--trace-cache-dir"}},
    {"client run", {"--socket", "--deadline", "--timeout-ms"}},
    {"client health", {"--socket", "--timeout-ms"}},
    {"client ping", {"--socket", "--timeout-ms"}},
};

bool
takesFlag(const std::vector<std::string> &flags, const std::string &flag)
{
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
}

/**
 * Parse argv[from..] for @p command (a kCommandFlags key). A value
 * flag takes `--flag VALUE` or `--flag=VALUE`; a switch takes no
 * value.
 */
bool
parseFlags(int argc, char **argv, int from, const std::string &command,
           Flags &flags)
{
    // Bounds match the spec parser's: an overflowing value must be
    // an error, not a silent truncation — and never a value that
    // collides with the kNoThreads/kNoRecords "unset" sentinels.
    auto parseCount = [](const std::string &flag, const char *s,
                         unsigned long long max,
                         unsigned long long &out) {
        char *end = nullptr;
        errno = 0;
        unsigned long long v = std::strtoull(s, &end, 10);
        if (end == s || *end != '\0' || errno == ERANGE || v > max) {
            std::fprintf(stderr,
                         "prophet: %s: invalid value '%s'\n",
                         flag.c_str(), s);
            return false;
        }
        out = v;
        return true;
    };
    auto parseSeconds = [](const std::string &flag, const char *s,
                           double &out) {
        char *end = nullptr;
        errno = 0;
        double secs = std::strtod(s, &end);
        if (end == s || *end != '\0' || errno == ERANGE
            || !(secs >= 0.0) || secs >= 1e9) {
            std::fprintf(stderr,
                         "prophet: %s: invalid value '%s'\n",
                         flag.c_str(), s);
            return false;
        }
        out = secs;
        return true;
    };
    constexpr unsigned long long kMaxThreads = 65536;
    constexpr unsigned long long kMaxRecords =
        1ull << 53; // the spec schema's bound
    const std::vector<std::string> &accepted = kCommandFlags.at(command);
    for (int i = from; i < argc; ++i) {
        if (argv[i][0] != '-') {
            flags.positional.push_back(argv[i]);
            continue;
        }
        std::string flag = argv[i];
        const char *s = nullptr;
        if (const char *eq = std::strchr(argv[i], '=')) {
            flag.resize(static_cast<std::size_t>(eq - argv[i]));
            s = eq + 1;
        }
        if (!takesFlag(accepted, flag)) {
            const bool known = std::any_of(
                kCommandFlags.begin(), kCommandFlags.end(),
                [&](const auto &c) { return takesFlag(c.second, flag); });
            if (known)
                std::fprintf(stderr, "prophet %s: %s has no effect here\n",
                             command.c_str(), flag.c_str());
            else
                std::fprintf(stderr, "prophet: unknown flag %s\n",
                             flag.c_str());
            return false;
        }

        bool is_switch = true;
        if (flag == "--no-trace-cache")
            flags.opts.traceCache = false;
        else if (flag == "--keep-going")
            flags.opts.keepGoing = 1;
        else if (flag == "--fail-fast")
            flags.opts.keepGoing = 0;
        else if (flag == "--progress")
            flags.opts.progress = true;
        else if (flag == "--resume")
            flags.resume = true;
        else
            is_switch = false;
        if (is_switch) {
            if (s) {
                std::fprintf(stderr, "prophet: %s takes no value\n",
                             flag.c_str());
                return false;
            }
            continue;
        }

        if (!s) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "prophet: %s needs a value\n",
                             flag.c_str());
                return false;
            }
            s = argv[++i];
        }
        unsigned long long v = 0;
        if (flag == "--threads") {
            if (!parseCount(flag, s, kMaxThreads, v))
                return false;
            flags.opts.threads = static_cast<unsigned>(v);
        } else if (flag == "--records") {
            if (!parseCount(flag, s, kMaxRecords, v))
                return false;
            flags.opts.records = static_cast<std::size_t>(v);
        } else if (flag == "--trace-cache-dir") {
            flags.opts.traceCacheDir = s;
        } else if (flag == "--metrics-out") {
            flags.opts.metricsOut = s;
        } else if (flag == "--trace-out") {
            flags.opts.traceOut = s;
        } else if (flag == "--journal") {
            flags.opts.journalPath = s;
        } else if (flag == "--job-timeout") {
            if (!parseSeconds(flag, s, flags.opts.jobTimeoutS))
                return false;
        } else if (flag == "--socket") {
            flags.socketPath = s;
        } else if (flag == "--serve-workers") {
            if (!parseCount(flag, s, 1024, v))
                return false;
            flags.serveOpts.workers = static_cast<unsigned>(v);
        } else if (flag == "--max-queue") {
            if (!parseCount(flag, s, 1 << 20, v))
                return false;
            flags.serveOpts.maxQueue = static_cast<std::size_t>(v);
        } else if (flag == "--max-frame-bytes") {
            if (!parseCount(flag, s, ~std::uint32_t{0}, v))
                return false;
            flags.serveOpts.maxFrameBytes =
                static_cast<std::uint32_t>(v);
        } else if (flag == "--io-timeout-ms") {
            if (!parseCount(flag, s, 86400000, v))
                return false;
            flags.serveOpts.ioTimeoutMs = static_cast<int>(v);
        } else if (flag == "--max-rss-mb") {
            if (!parseCount(flag, s, 1 << 24, v))
                return false;
            flags.serveOpts.maxRssMb = static_cast<std::size_t>(v);
        } else if (flag == "--timeout-ms") {
            if (!parseCount(flag, s, 86400000, v))
                return false;
            flags.clientTimeoutMs = static_cast<int>(v);
        } else if (flag == "--request-deadline") {
            if (!parseSeconds(flag, s, flags.serveOpts.requestDeadlineS))
                return false;
        } else if (flag == "--drain-grace") {
            if (!parseSeconds(flag, s, flags.serveOpts.drainGraceS))
                return false;
        } else if (flag == "--deadline") {
            if (!parseSeconds(flag, s, flags.clientDeadlineS))
                return false;
        }
    }
    return true;
}

int
cmdRun(const Flags &flags)
{
    if (flags.positional.size() != 1) {
        std::fprintf(stderr, "prophet run: expected one spec file\n");
        return 2;
    }
    try {
        auto spec =
            driver::ExperimentSpec::fromFile(flags.positional[0]);
        driver::DriverOptions opts = flags.opts;
        if (flags.resume && opts.journalPath.empty())
            opts.journalPath = flags.positional[0] + ".journal";
        // The shutdown token rides along unconditionally: without a
        // journal an interrupt still drains cleanly and exits 6, it
        // just has nothing to resume from.
        installShutdownHandlers();
        opts.shutdown = &gShutdown;
        driver::ExperimentDriver drv(std::move(spec),
                                     std::move(opts));
        bool keep_going = drv.keepGoingEnabled();
        auto report = drv.run();
        for (const auto &out : report.outputs)
            if (!driver::writeSinkOutput(out))
                report.sinksOk = false;
        // The report-to-exit mapping is shared with the serve
        // daemon's response frames (driver::exitCodeForReport), so
        // the two entry points cannot disagree on a verdict.
        int rc = driver::exitCodeForReport(report, keep_going);
        if (report.failedJobs > 0)
            std::fprintf(
                stderr, "prophet run: %zu of %zu job%s failed%s\n",
                report.failedJobs, report.results.size(),
                report.results.size() == 1 ? "" : "s",
                keep_going ? " (keep-going: partial results written)"
                           : "");
        if (!report.sinksOk)
            std::fprintf(stderr,
                         "prophet run: one or more sinks failed to "
                         "write\n");
        // A signal trumps the failure codes: the skipped/cancelled
        // jobs are the interrupt's doing, and exit 6 tells scripts
        // "rerun with --resume", not "a job is broken".
        if (gSignal != 0) {
            std::fprintf(
                stderr,
                "prophet run: interrupted by signal %d "
                "(%zu job%s completed%s)\n",
                static_cast<int>(gSignal),
                report.results.size() - report.failedJobs,
                report.results.size() - report.failedJobs == 1
                    ? ""
                    : "s",
                flags.resume || !flags.opts.journalPath.empty()
                    ? "; rerun with --resume to continue"
                    : "");
            rc = static_cast<int>(ExitCode::Interrupted);
        }
        return rc;
    } catch (const Error &e) {
        std::fprintf(stderr, "prophet run: %s\n", e.what());
        return static_cast<int>(exitCodeForError(e.code()));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "prophet run: %s\n", e.what());
        return static_cast<int>(ExitCode::RuntimeFailure);
    }
}

/**
 * `prophet serve`: run the resident daemon until SIGINT/SIGTERM,
 * then drain gracefully and exit 6 — the same interrupt code a
 * drained `prophet run` uses.
 */
int
cmdServe(Flags &flags)
{
    if (flags.socketPath.empty()) {
        std::fprintf(stderr, "prophet serve: --socket is required\n");
        return static_cast<int>(ExitCode::Usage);
    }
    serve::ServeOptions sopts = flags.serveOpts;
    sopts.socketPath = flags.socketPath;
    sopts.traceCache = flags.opts.traceCache;
    sopts.traceCacheDir = flags.opts.traceCacheDir;

    try {
        serve::ServeDaemon daemon(std::move(sopts));
        daemon.start();
        installShutdownHandlers();
        while (gSignal == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        std::fprintf(stderr,
                     "prophet serve: signal %d; draining\n",
                     static_cast<int>(gSignal));
        daemon.drainAndStop();
        return static_cast<int>(ExitCode::Interrupted);
    } catch (const Error &e) {
        std::fprintf(stderr, "prophet serve: %s\n", e.what());
        return static_cast<int>(exitCodeForError(e.code()));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "prophet serve: %s\n", e.what());
        return static_cast<int>(ExitCode::RuntimeFailure);
    }
}

/** `prophet client run|health|ping` against a serve daemon. */
int
cmdClient(const std::string &sub, const Flags &flags)
{
    if (flags.socketPath.empty()) {
        std::fprintf(stderr,
                     "prophet client: --socket is required\n");
        return static_cast<int>(ExitCode::Usage);
    }
    if (sub == "run") {
        if (flags.positional.size() != 1) {
            std::fprintf(stderr,
                         "prophet client run: expected one spec "
                         "file\n");
            return static_cast<int>(ExitCode::Usage);
        }
        return serve::clientRun(flags.socketPath,
                                flags.positional[0],
                                flags.clientDeadlineS,
                                flags.clientTimeoutMs);
    }
    return serve::clientSimpleRequest(flags.socketPath, sub,
                                      flags.clientTimeoutMs);
}

int
cmdListWorkloads()
{
    std::printf("SPEC (Figures 10-12, 16-19):\n");
    for (const auto &w : workloads::specWorkloads())
        std::printf("  %s\n", w.c_str());
    std::printf("graph (Figure 15):\n");
    for (const auto &w : workloads::graphWorkloads())
        std::printf("  %s\n", w.c_str());
    std::printf("gcc inputs (Figure 13):\n");
    for (const auto &w : workloads::gccInputs())
        std::printf("  %s\n", w.c_str());
    std::printf("\nGraph labels follow <kernel>_<vertices>_<degree> "
                "with kernels\nbfs dfs sssp bc pagerank, so labels "
                "beyond Figure 15's are valid too.\n"
                "Spec aliases: @spec @graph @gcc\n");
    return 0;
}

int
cmdListPipelines()
{
    // Everything printed here comes from the pipeline registry —
    // names, display names, and the accepted parameters. Adding a
    // registry entry updates this listing (and the spec schema)
    // automatically.
    for (const auto &def : sim::pipelineRegistry()) {
        std::printf("%-10s %s\n", def.name.c_str(),
                    def.displayName.c_str());
        if (def.params.empty()) {
            std::printf("  (no parameters)\n");
            continue;
        }
        for (const auto &p : def.params)
            std::printf("  %-16s %-16s %s\n", p.key.c_str(),
                        sim::paramTypeName(p.type).c_str(),
                        p.doc.c_str());
    }
    std::printf(
        "\nSpec usage: a \"pipelines\" element is a name or an "
        "object, e.g.\n"
        "  {\"name\": \"triage\", \"degree\": 4, \"label\": "
        "\"triage-d4\"}\n"
        "and a top-level \"sweep\": {\"param\": ..., \"values\": "
        "[...]} cross-products\n"
        "every pipeline with every value.\n");
    return 0;
}

int
cmdTraceCacheWarm(const Flags &flags)
{
    if (flags.positional.empty()) {
        std::fprintf(stderr,
                     "prophet trace-cache warm: expected a spec file "
                     "or workload names\n");
        return 2;
    }

    // Cache keys are (workload, records), and each spec file may
    // use a different record override — so warming tracks the pair
    // per workload, never one global record count.
    std::vector<std::pair<std::string, std::size_t>> jobs;
    unsigned threads = 1;
    try {
        for (const auto &arg : flags.positional) {
            if (arg.size() > 5
                && arg.compare(arg.size() - 5, 5, ".json") == 0) {
                auto spec = driver::ExperimentSpec::fromFile(arg);
                for (const auto &w : spec.workloads)
                    jobs.emplace_back(w, spec.records);
                threads = spec.threads;
            } else if (workloads::isKnown(arg)) {
                jobs.emplace_back(arg, std::size_t{0});
            } else {
                std::fprintf(stderr,
                             "prophet trace-cache warm: unknown "
                             "workload \"%s\"\n",
                             arg.c_str());
                return 1;
            }
        }
    } catch (const driver::SpecError &e) {
        std::fprintf(stderr, "prophet trace-cache warm: %s\n",
                     e.what());
        return 1;
    }
    if (flags.opts.records != driver::DriverOptions::kNoRecords)
        for (auto &[w, r] : jobs)
            r = flags.opts.records;
    if (flags.opts.threads != driver::DriverOptions::kNoThreads)
        threads = flags.opts.threads;

    // One Runner per distinct record override (a Runner generates at
    // a single trace length); duplicates within a group collapse.
    std::map<std::size_t, std::vector<std::string>> groups;
    for (const auto &[w, r] : jobs) {
        auto &names = groups[r];
        if (std::find(names.begin(), names.end(), w) == names.end())
            names.push_back(w);
    }
    auto cache = std::make_shared<trace::TraceCache>(
        flags.opts.traceCacheDir);
    std::size_t warmed = 0;
    for (const auto &[records, names] : groups) {
        sim::Runner runner(sim::SystemConfig::table1(), records);
        runner.setTraceCache(cache);
        sim::SweepEngine engine(threads);
        // Each workload is dropped as soon as it is on disk (loaded,
        // or generated and stored), so warming holds one trace per
        // worker rather than every trace of the group.
        engine.forEach(names.size(), [&](std::size_t i) {
            runner.traceFor(names[i]);
            runner.releaseTrace(names[i]);
        });
        warmed += names.size();
    }
    auto st = cache->stats();
    std::printf("warmed %zu workload(s) into %s "
                "(%llu already cached, %llu generated)\n",
                warmed, cache->dir().c_str(),
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.stores));
    return 0;
}

int
cmdTraceCacheClear(const Flags &flags)
{
    trace::TraceCache cache(flags.opts.traceCacheDir);
    std::size_t removed = cache.clear();
    std::printf("removed %zu cached trace(s) from %s\n", removed,
                cache.dir().c_str());
    return 0;
}

int
cmdTraceCacheStats(const Flags &flags)
{
    trace::TraceCache cache(flags.opts.traceCacheDir);
    auto entries = cache.entries();
    std::uint64_t total = 0;
    for (const auto &e : entries) {
        std::printf("  %10llu  %s\n",
                    static_cast<unsigned long long>(e.bytes),
                    e.file.c_str());
        total += e.bytes;
    }
    std::printf("%zu cached trace(s), %llu bytes in %s\n",
                entries.size(),
                static_cast<unsigned long long>(total),
                cache.dir().c_str());

    // Quarantined entries and the durable health counters
    // (accumulated across every process that used this directory).
    auto quarantined = cache.quarantined();
    if (!quarantined.empty()) {
        std::printf("%zu quarantined entr%s (corrupt, renamed to "
                    ".corrupt; removed by trace-cache clear):\n",
                    quarantined.size(),
                    quarantined.size() == 1 ? "y" : "ies");
        for (const auto &e : quarantined)
            std::printf("  %10llu  %s\n",
                        static_cast<unsigned long long>(e.bytes),
                        e.file.c_str());
    }
    auto pc = cache.persistentCounters();
    std::printf("health counters (lifetime of %s):\n"
                "  checksum failures: %llu\n"
                "  quarantines:       %llu\n"
                "  lock contention:   %llu\n"
                "  store failures:    %llu\n",
                cache.dir().c_str(),
                static_cast<unsigned long long>(pc.checksumFailures),
                static_cast<unsigned long long>(pc.quarantines),
                static_cast<unsigned long long>(pc.lockContention),
                static_cast<unsigned long long>(pc.storeFailures));
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage();
        return 0;
    }
    int from = 2;
    if (cmd == "client" || cmd == "trace-cache") {
        if (argc < 3)
            return usage();
        cmd += std::string(" ") + argv[2];
        from = 3;
    }
    if (!kCommandFlags.count(cmd)) {
        std::fprintf(stderr, "prophet: unknown command \"%s\"\n",
                     cmd.c_str());
        return usage();
    }
    Flags flags;
    if (!parseFlags(argc, argv, from, cmd, flags))
        return 2;

    if (cmd == "run")
        return cmdRun(flags);
    if (cmd == "serve")
        return cmdServe(flags);
    if (cmd == "list-workloads")
        return cmdListWorkloads();
    if (cmd == "list-pipelines")
        return cmdListPipelines();
    if (cmd == "trace-cache warm")
        return cmdTraceCacheWarm(flags);
    if (cmd == "trace-cache clear")
        return cmdTraceCacheClear(flags);
    if (cmd == "trace-cache stats")
        return cmdTraceCacheStats(flags);
    return cmdClient(argv[2], flags); // client run|health|ping
}
