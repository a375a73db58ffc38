#include "serve/client.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/exit_codes.hh"
#include "driver/json.hh"
#include "driver/sink.hh"
#include "serve/protocol.hh"

namespace prophet::serve
{

namespace json = driver::json;

namespace
{

/** Connect to a Unix stream socket; -1 with errno on failure. */
int
connectTo(const std::string &path)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        errno = ENAMETOOLONG;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
    }
    return fd;
}

/**
 * Decode a {"type":"error"} frame onto stderr + an exit code;
 * returns -1 when the frame is not an error frame.
 */
int
maybeErrorFrame(const json::Value &resp)
{
    const json::Value *type = resp.find("type");
    if (!type || !type->isString() || type->asString() != "error")
        return -1;
    const json::Value *code = resp.find("code");
    const json::Value *message = resp.find("message");
    const json::Value *retry = resp.find("retry_after_ms");
    const std::string code_name =
        code && code->isString() ? code->asString() : "internal";
    std::fprintf(stderr, "client: server error: %s: %s",
                 code_name.c_str(),
                 message && message->isString()
                     ? message->asString().c_str()
                     : "(no message)");
    if (retry && retry->isNumber())
        std::fprintf(stderr, " (retry after %.0f ms)",
                     retry->asNumber());
    std::fprintf(stderr, "\n");
    const json::Value *ec = resp.find("exit_code");
    return ec && ec->isNumber()
        ? static_cast<int>(ec->asNumber())
        : static_cast<int>(ExitCode::RuntimeFailure);
}

/**
 * One result-frame "sinks" entry as a rendered sink. False when it
 * names an unknown type, lacks its content, or is a json/csv entry
 * without a path.
 */
bool
parseSinkEntry(const json::Value &entry, driver::SinkOutput &out)
{
    const json::Value *type = entry.find("type");
    const json::Value *path = entry.find("path");
    const json::Value *content = entry.find("content");
    if (!type || !type->isString() || !content || !content->isString()
        || !driver::parseSinkKind(type->asString(), out.sink.kind))
        return false;
    if (path && path->isString())
        out.sink.path = path->asString();
    out.bytes = content->asString();
    return out.sink.kind == driver::SinkSpec::Kind::Table
        || !out.sink.path.empty();
}

} // anonymous namespace

bool
clientExchange(const std::string &socket_path,
               const std::string &payload, std::string &response,
               std::string &err, int timeout_ms)
{
    const int fd = connectTo(socket_path);
    if (fd < 0) {
        err = "cannot connect to " + socket_path + ": "
            + std::strerror(errno);
        return false;
    }
    if (!writeFrame(fd, payload, timeout_ms)) {
        err = "request frame write failed";
        ::close(fd);
        return false;
    }
    ReadOutcome out =
        readFrame(fd, kDefaultMaxFrameBytes, timeout_ms);
    ::close(fd);
    if (out.kind != ReadOutcome::Kind::Frame) {
        err = out.error.empty() ? "no response frame" : out.error;
        return false;
    }
    response = std::move(out.payload);
    return true;
}

int
clientSimpleRequest(const std::string &socket_path,
                    const std::string &type, int timeout_ms)
{
    json::Value req = json::Value::makeObject();
    req.set("type", json::Value(type));
    std::string response, err;
    if (!clientExchange(socket_path, json::dump(req), response, err,
                        timeout_ms)) {
        std::fprintf(stderr, "client: %s\n", err.c_str());
        return static_cast<int>(ExitCode::RuntimeFailure);
    }
    json::Value resp;
    std::string perr;
    if (!json::parse(response, resp, &perr)) {
        std::fprintf(stderr, "client: malformed response: %s\n",
                     perr.c_str());
        return static_cast<int>(ExitCode::RuntimeFailure);
    }
    const int err_code = maybeErrorFrame(resp);
    if (err_code >= 0)
        return err_code;
    std::printf("%s\n", json::dump(resp, 2).c_str());
    return static_cast<int>(ExitCode::Success);
}

int
clientRun(const std::string &socket_path,
          const std::string &spec_path, int timeout_ms)
{
    std::ifstream in(spec_path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "client: cannot read spec %s\n",
                     spec_path.c_str());
        return static_cast<int>(ExitCode::SpecInvalid);
    }
    std::ostringstream text;
    text << in.rdbuf();

    json::Value req = json::Value::makeObject();
    req.set("type", json::Value("run"));
    req.set("spec_text", json::Value(text.str()));

    std::string response, err;
    if (!clientExchange(socket_path, json::dump(req), response, err,
                        timeout_ms)) {
        std::fprintf(stderr, "client: %s\n", err.c_str());
        return static_cast<int>(ExitCode::RuntimeFailure);
    }
    json::Value resp;
    std::string perr;
    if (!json::parse(response, resp, &perr)) {
        std::fprintf(stderr, "client: malformed response: %s\n",
                     perr.c_str());
        return static_cast<int>(ExitCode::RuntimeFailure);
    }
    const int err_code = maybeErrorFrame(resp);
    if (err_code >= 0)
        return err_code;

    const json::Value *type = resp.find("type");
    if (!type || !type->isString()
        || type->asString() != "result") {
        std::fprintf(stderr, "client: unexpected response type\n");
        return static_cast<int>(ExitCode::RuntimeFailure);
    }

    // Write the daemon-rendered sinks exactly as a standalone run
    // would (the same writeSinkOutput), so the two entry points are
    // byte-identical to compare. An entry that cannot be written is a
    // failure, never silently skipped.
    bool sinks_ok = true;
    const json::Value *sinks = resp.find("sinks");
    if (sinks && sinks->isArray()) {
        for (const auto &s : sinks->asArray()) {
            driver::SinkOutput out;
            if (!parseSinkEntry(s, out)) {
                const json::Value *type = s.find("type");
                std::fprintf(stderr,
                             "client: cannot write sink entry of type "
                             "%s: unknown type, or missing content or "
                             "path\n",
                             type ? json::dump(*type).c_str() : "(none)");
                sinks_ok = false;
            } else if (!driver::writeSinkOutput(out)) {
                sinks_ok = false;
            }
        }
    }

    const json::Value *ec = resp.find("exit_code");
    int exit_code = ec && ec->isNumber()
        ? static_cast<int>(ec->asNumber())
        : static_cast<int>(ExitCode::RuntimeFailure);
    if (exit_code == 0 && !sinks_ok)
        exit_code = static_cast<int>(ExitCode::RuntimeFailure);
    return exit_code;
}

} // namespace prophet::serve
