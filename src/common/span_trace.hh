/**
 * @file
 * Scoped span tracing emitting Chrome trace_event / Perfetto-
 * compatible JSON: `prophet run --trace-out run.trace.json` turns
 * the collector on, every instrumented scope (experiment, per-job
 * pipeline runs, baseline and profile runs, trace loads, simulations,
 * sink rendering) records a complete ("X") event
 * on its thread's track, and the driver writes the file at the end.
 * Open the result in https://ui.perfetto.dev or chrome://tracing.
 *
 * Cost model: when the collector is disabled (the default), a Span
 * is one relaxed atomic load at construction and a dead branch at
 * destruction — cheap enough to leave compiled into every path,
 * like the fault-injection harness. When enabled, ending a span
 * takes a short mutex-guarded append; spans are phase/job-grained
 * (never per record), so contention is negligible next to the work
 * they time.
 *
 * Thread tracks: each thread gets a stable small tid on first use
 * (currentTid()), and sweep workers name their tracks
 * ("worker-0", ...) via setCurrentThreadName — names are kept even
 * while disabled, so a worker named before collection starts still
 * labels its track.
 */

#ifndef PROPHET_COMMON_SPAN_TRACE_HH
#define PROPHET_COMMON_SPAN_TRACE_HH

#include <cstdint>
#include <string>

namespace prophet::span
{

/** Is the collector recording? One relaxed load. */
bool enabled();

/** Turn the collector on/off (driver: on at run start when
 *  --trace-out is given, off before writing the file). */
void setEnabled(bool on);

/** Drop every recorded event (thread ids and names persist). */
void reset();

/** Events currently buffered (tests, overflow diagnostics). */
std::size_t eventCount();

/** Events dropped after the buffer cap (also counted in the
 *  "span.dropped" registry counter). */
std::uint64_t droppedCount();

/**
 * This thread's stable track id: assigned on first call, never
 * reused, identical across every span the thread emits.
 */
std::uint32_t currentTid();

/** Name this thread's track in the trace ("worker-3"). Recorded
 *  even while disabled. */
void setCurrentThreadName(const std::string &name);

/**
 * The buffered events as a Chrome trace_event JSON document
 * ({"traceEvents": [...], "displayTimeUnit": "ms"}). Deterministic
 * order: thread-name metadata first, then events sorted by
 * (tid, start, -duration) so parents precede their children.
 */
std::string toJson();

/** Write toJson() to @p path; false (with a warning) on I/O error. */
bool writeJson(const std::string &path);

/**
 * RAII span: captures the wall-clock interval from construction to
 * destruction on the current thread's track. The enabled check
 * happens at construction; a span that began while enabled records
 * even if the collector is disabled before it ends (the driver only
 * disables after every worker has finished).
 */
class Span
{
  public:
    explicit Span(std::string name, const char *category = "phase");

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span();

  private:
    std::string name;
    const char *category;
    std::uint64_t startNs = 0;
    bool active = false;
};

} // namespace prophet::span

#endif // PROPHET_COMMON_SPAN_TRACE_HH
