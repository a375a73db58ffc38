#include "common/metrics.hh"

#include "common/log.hh"

namespace prophet::metrics
{

std::size_t
Histogram::bucketOf(std::uint64_t sample)
{
    if (sample == 0)
        return 0;
    // Bucket i covers [2^(i-1), 2^i): 1 -> bucket 1, 2..3 -> 2,
    // 4..7 -> 3, ... The top bucket absorbs the rest.
    std::size_t b = 64 - static_cast<std::size_t>(
                             __builtin_clzll(sample));
    return b < kBuckets ? b : kBuckets - 1;
}

std::uint64_t
Histogram::bucketLowerBound(std::size_t i)
{
    if (i == 0)
        return 0;
    return std::uint64_t{1} << (i - 1);
}

void
Histogram::record(std::uint64_t sample)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    buckets[bucketOf(sample)].fetch_add(1,
                                        std::memory_order_relaxed);

    // min/max via CAS loops: contention is negligible at phase
    // granularity, and a lock here would invert the "instruments are
    // plain atomics" promise.
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (sample < cur
           && !min_.compare_exchange_weak(cur, sample,
                                          std::memory_order_relaxed))
        ;
    cur = max_.load(std::memory_order_relaxed);
    while (sample > cur
           && !max_.compare_exchange_weak(cur, sample,
                                          std::memory_order_relaxed))
        ;
}

std::uint64_t
Histogram::min() const
{
    std::uint64_t v = min_.load(std::memory_order_relaxed);
    return v == ~std::uint64_t{0} ? 0 : v;
}

void
Histogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets)
        b.store(0, std::memory_order_relaxed);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot s;
    s.count = count();
    s.sum = sum();
    s.min = min();
    s.max = max();
    s.buckets.reserve(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i)
        s.buckets.push_back(bucket(i));
    return s;
}

Registry &
Registry::instance()
{
    // Leaked intentionally: instruments are bumped from worker
    // threads that may outlive main()'s static destructors.
    static Registry *reg = new Registry();
    return *reg;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    if (histograms.count(name))
        prophet_panic("metric name registered as a different kind");
    auto it = counters.find(name);
    if (it == counters.end())
        it = counters.emplace(name, std::make_unique<Counter>())
                 .first;
    return *it->second;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    if (counters.count(name))
        prophet_panic("metric name registered as a different kind");
    auto it = histograms.find(name);
    if (it == histograms.end())
        it = histograms.emplace(name, std::make_unique<Histogram>())
                 .first;
    return *it->second;
}

RegistrySnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    RegistrySnapshot s;
    s.counters.reserve(counters.size());
    for (const auto &[name, c] : counters)
        s.counters.push_back({name, c->value()});
    s.histograms.reserve(histograms.size());
    for (const auto &[name, h] : histograms)
        s.histograms.push_back({name, h->snapshot()});
    return s;
}

void
Registry::resetValues()
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &[name, c] : counters)
        c->reset();
    for (auto &[name, h] : histograms)
        h->reset();
}

} // namespace prophet::metrics
