/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * log2-bucketed histograms every subsystem reports through — the
 * trace cache, sweep workers, fault-injection harness, driver phases,
 * and simulation runs all land here, and `prophet run --metrics-out`
 * snapshots the lot into one machine-readable document.
 *
 * Design constraints, in order:
 *  - the PR-4/5 record hot path must stay allocation-free and
 *    regression-gate clean: instruments are plain atomics, lookups
 *    happen once (callers cache the returned reference — a
 *    function-local `static Counter &` is the idiom), and nothing on
 *    the per-record path touches the registry at all (phase timers
 *    fire per *run*, never per record);
 *  - references returned by the registry are valid for the process
 *    lifetime: instruments are never erased, resetValues() zeroes
 *    values but keeps every registration, so cached references in
 *    long-lived subsystems survive driver-run resets;
 *  - snapshots are deterministic: instruments are stored and
 *    reported in name order regardless of registration order.
 */

#ifndef PROPHET_COMMON_METRICS_HH
#define PROPHET_COMMON_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace prophet::metrics
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        val.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return val.load(std::memory_order_relaxed);
    }

    void reset() { val.store(0, std::memory_order_relaxed); }

  private:
    /** Own cache line: counters from different subsystems are
     *  registered together but bumped from different threads. */
    alignas(64) std::atomic<std::uint64_t> val{0};
};

/** A point-in-time signed level (queue depth, reserved ways, ...). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        val.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t delta)
    {
        val.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return val.load(std::memory_order_relaxed);
    }

    void reset() { val.store(0, std::memory_order_relaxed); }

  private:
    alignas(64) std::atomic<std::int64_t> val{0};
};

/**
 * Log2-bucketed histogram for latency-style samples (nanoseconds by
 * convention for the "phase.*_ns" family). Bucket 0 counts exact
 * zeros; bucket i >= 1 counts samples in [2^(i-1), 2^i). Recording
 * is a handful of relaxed atomic ops — safe from any thread, never
 * allocating.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    void record(std::uint64_t sample);

    /** Bucket index a sample lands in. */
    static std::size_t bucketOf(std::uint64_t sample);

    /** Smallest sample mapping to bucket @p i (inclusive). */
    static std::uint64_t bucketLowerBound(std::size_t i);

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Smallest recorded sample (0 when empty). */
    std::uint64_t min() const;

    /** Largest recorded sample (0 when empty). */
    std::uint64_t
    max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    bucket(std::size_t i) const
    {
        return buckets[i].load(std::memory_order_relaxed);
    }

    void reset();

    /** Coherent-enough copy for reporting (values race benignly). */
    struct Snapshot
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;
        std::vector<std::uint64_t> buckets; ///< kBuckets entries
    };

    Snapshot snapshot() const;

  private:
    alignas(64) std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max_{0};
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
};

/** One instrument's value in a registry snapshot. */
struct CounterSample
{
    std::string name;
    std::uint64_t value = 0;
};

struct GaugeSample
{
    std::string name;
    std::int64_t value = 0;
};

struct HistogramSample
{
    std::string name;
    Histogram::Snapshot snap;
};

/** Every instrument's value, each section sorted by name. */
struct RegistrySnapshot
{
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;
};

/**
 * The process-wide instrument registry. Lookup is mutex-guarded and
 * creates on first use; the returned reference never dangles (see
 * file comment). A name identifies exactly one instrument kind —
 * asking for an existing name as a different kind panics, since two
 * subsystems silently sharing a name would corrupt both reports.
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Deterministic (name-ordered) copy of every value. */
    RegistrySnapshot snapshot() const;

    /**
     * Zero every value, keeping every registration (and therefore
     * every cached reference) intact. The driver calls this at the
     * start of each run so a report never carries a previous run's
     * counts.
     */
    void resetValues();

  private:
    Registry() = default;

    mutable std::mutex mu;
    // Node-based maps: instrument addresses are stable forever.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

/** Shorthands for the common "look up once, cache the ref" idiom. */
inline Counter &
counter(const std::string &name)
{
    return Registry::instance().counter(name);
}

inline Gauge &
gauge(const std::string &name)
{
    return Registry::instance().gauge(name);
}

inline Histogram &
histogram(const std::string &name)
{
    return Registry::instance().histogram(name);
}

/**
 * RAII phase timer: records the scope's duration (ns) into a
 * histogram on destruction. Two steady-clock reads per scope —
 * intended for run/phase granularity, never per record.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &h)
        : hist(&h), start(std::chrono::steady_clock::now())
    {}

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Record now instead of at scope exit; returns the ns. */
    std::uint64_t
    stop()
    {
        if (!hist)
            return 0;
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
        std::uint64_t v =
            ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
        hist->record(v);
        hist = nullptr;
        return v;
    }

    ~ScopedTimer()
    {
        if (hist)
            stop();
    }

  private:
    Histogram *hist;
    std::chrono::steady_clock::time_point start;
};

} // namespace prophet::metrics

#endif // PROPHET_COMMON_METRICS_HH
