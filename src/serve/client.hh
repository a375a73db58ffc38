/**
 * @file
 * The `prophet client` side of the serve protocol: connect to a
 * daemon's Unix socket, send one request frame, decode the response.
 *
 * `clientRun` is the CLI-equivalent path: it ships a spec file's
 * text to the daemon, then writes the returned sinks with the same
 * driver::writeSinkOutput a standalone `prophet run SPEC` uses —
 * table content to stdout, json/csv content to the spec's paths —
 * and returns the same documented exit code, so `prophet client run`
 * is a drop-in swap for `prophet run` against a warm daemon.
 */

#ifndef PROPHET_SERVE_CLIENT_HH
#define PROPHET_SERVE_CLIENT_HH

#include <string>

namespace prophet::serve
{

/**
 * Run a spec file through the daemon at @p socket_path. Writes the
 * returned sinks locally, prints structured errors to stderr, and
 * returns the documented process exit code (the daemon's verdict,
 * or the client-side mapping for connect/protocol failures). A sink
 * entry it cannot write — an unknown type, missing content, a
 * json/csv entry without a path, or a failed file write — turns a
 * successful verdict into 4.
 * @p deadline_s > 0 asks the daemon for a per-job deadline;
 * @p timeout_ms bounds the wait for the response frame (< 0 waits
 * forever — simulations can be slow).
 */
int clientRun(const std::string &socket_path,
              const std::string &spec_path, double deadline_s,
              int timeout_ms);

/**
 * Send a bare {"type": @p type} request ("ping", "health") and
 * print the response payload to stdout. Returns the documented
 * exit code (0 on any well-formed response).
 */
int clientSimpleRequest(const std::string &socket_path,
                        const std::string &type, int timeout_ms);

/**
 * Low-level one-shot exchange for tests: connect, send @p payload
 * as one frame, read one response frame into @p response. Returns
 * false (with @p err set) on connect/frame failures.
 */
bool clientExchange(const std::string &socket_path,
                    const std::string &payload,
                    std::string &response, std::string &err,
                    int timeout_ms);

} // namespace prophet::serve

#endif // PROPHET_SERVE_CLIENT_HH
