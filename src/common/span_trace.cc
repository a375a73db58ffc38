#include "common/span_trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/metrics.hh"

namespace prophet::span
{

namespace
{

/** One completed ("X") event. */
struct Event
{
    std::string name;
    const char *category;
    std::uint32_t tid;
    std::uint64_t startNs;
    std::uint64_t durNs;
};

/**
 * Hard cap on buffered events: spans are job/phase-grained, so even
 * a huge sweep stays far below this — the cap only guards against an
 * instrumentation bug flooding memory. Overflow is counted, never
 * silent.
 */
constexpr std::size_t kMaxEvents = 1 << 20;

struct Collector
{
    std::mutex mu;
    std::vector<Event> events;
    std::map<std::uint32_t, std::string> threadNames;
    std::atomic<bool> on{false};
    std::atomic<std::uint32_t> nextTid{0};

    /** One steady-clock epoch per process: every ts is relative to
     *  it, so spans from different threads share a timeline. */
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

Collector &
collector()
{
    // Leaked like the metrics registry: worker threads may emit
    // spans during static destruction otherwise.
    static Collector *c = new Collector();
    return *c;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - collector().epoch)
            .count());
}

/** JSON string escaping for event/thread names. */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // anonymous namespace

bool
enabled()
{
    return collector().on.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    collector().on.store(on, std::memory_order_relaxed);
}

void
reset()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    c.events.clear();
}

std::size_t
eventCount()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.events.size();
}

std::uint32_t
currentTid()
{
    thread_local std::uint32_t tid =
        collector().nextTid.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

void
setCurrentThreadName(const std::string &name)
{
    Collector &c = collector();
    std::uint32_t tid = currentTid();
    std::lock_guard<std::mutex> lock(c.mu);
    c.threadNames[tid] = name;
}

Span::Span(std::string name_in, const char *category_in)
    : name(std::move(name_in)), category(category_in)
{
    if (!enabled())
        return;
    active = true;
    startNs = nowNs();
}

Span::~Span()
{
    if (!active)
        return;
    std::uint64_t end = nowNs();
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    if (c.events.size() >= kMaxEvents) {
        metrics::counter("span.dropped").inc();
        return;
    }
    c.events.push_back(Event{std::move(name), category, currentTid(),
                             startNs, end - startNs});
}

std::string
toJson()
{
    Collector &c = collector();
    std::vector<Event> events;
    std::map<std::uint32_t, std::string> names;
    {
        std::lock_guard<std::mutex> lock(c.mu);
        events = c.events;
        names = c.threadNames;
    }
    // Deterministic order independent of completion interleaving:
    // by track, then start time, longest-first on ties so a parent
    // span precedes the child it fully encloses.
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  return a.durNs > b.durNs;
              });

    std::string out = "{\"traceEvents\": [\n";
    char buf[160];
    bool first = true;
    for (const auto &[tid, name] : names) {
        std::snprintf(buf, sizeof(buf),
                      "%s  {\"name\": \"thread_name\", \"ph\": \"M\", "
                      "\"pid\": 1, \"tid\": %u, \"args\": {\"name\": ",
                      first ? "" : ",\n", tid);
        out += buf;
        out += "\"" + escape(name) + "\"}}";
        first = false;
    }
    for (const auto &e : events) {
        // ts/dur are microseconds in the trace_event format; keep
        // nanosecond precision with three decimals.
        std::snprintf(buf, sizeof(buf),
                      "%s  {\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                      "\"ts\": %llu.%03llu, \"dur\": %llu.%03llu, "
                      "\"cat\": \"%s\", \"name\": ",
                      first ? "" : ",\n", e.tid,
                      static_cast<unsigned long long>(e.startNs
                                                      / 1000),
                      static_cast<unsigned long long>(e.startNs
                                                      % 1000),
                      static_cast<unsigned long long>(e.durNs / 1000),
                      static_cast<unsigned long long>(e.durNs % 1000),
                      e.category);
        out += buf;
        out += "\"" + escape(e.name) + "\"}";
        first = false;
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

bool
writeJson(const std::string &path)
{
    std::string doc = toJson();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        prophet_warnf("span-trace: cannot write %s", path.c_str());
        return false;
    }
    bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        prophet_warnf("span-trace: write to %s failed", path.c_str());
    return ok;
}

} // namespace prophet::span
