/**
 * @file
 * google-benchmark microbenchmarks for the hot simulator structures:
 * metadata-table insert/lookup, cache lookup hit and miss-plus-fill,
 * Bloom filter, training unit, and the full per-record system step,
 * plus the whole-trace passes: trace-cache store and load, and RPG2
 * kernel identification. These guard the simulator's own performance
 * (figure benches run hundreds of millions of these operations).
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>
#include <unistd.h>

#include "common/time.hh"
#include "mem/cache.hh"
#include "mem/replacement.hh"
#include "prefetch/bloom.hh"
#include "prefetch/markov_table.hh"
#include "prefetch/training_unit.hh"
#include "rpg2/kernel_id.hh"
#include "sim/system.hh"
#include "trace/trace_cache.hh"
#include "workloads/pattern_lib.hh"
#include "workloads/registry.hh"

namespace
{

using namespace prophet;

void
BM_MarkovInsert(benchmark::State &state)
{
    pf::MarkovTable table(2048, 8,
                          std::make_unique<mem::SrripPolicy>());
    Addr key = 0;
    for (auto _ : state) {
        table.insert(key, key + 1, 0);
        key = (key + 12345) & 0xfffff;
    }
}
BENCHMARK(BM_MarkovInsert);

void
BM_MarkovLookup(benchmark::State &state)
{
    pf::MarkovTable table(2048, 8,
                          std::make_unique<mem::SrripPolicy>());
    for (Addr k = 0; k < 100000; ++k)
        table.insert(k, k + 1, 0);
    Addr key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(key));
        key = (key + 7919) % 100000;
    }
}
BENCHMARK(BM_MarkovLookup);

void
BM_CacheLookupHit(benchmark::State &state)
{
    mem::Cache cache(
        mem::CacheConfig{"L2", 512 * 1024, 8, 9, 32, "plru"});
    for (Addr a = 0; a < 8192; ++a)
        cache.fill(a, 0, mem::PfClass::None, kInvalidPC, false);
    Addr a = 0;
    Cycle cycle = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookupDemand(a, cycle++));
        a = (a + 37) & 8191;
    }
}
BENCHMARK(BM_CacheLookupHit);

/**
 * The cache miss path on the LLC's geometry (2 MB, 16-way LRU): each
 * iteration is one demand lookup that misses plus the fill that
 * evicts. Every line address is new, so no lookup hits and, after
 * the warm-up fills, every fill replaces a line.
 */
void
BM_CacheMissFill(benchmark::State &state)
{
    mem::Cache cache(
        mem::CacheConfig{"LLC", 2 * 1024 * 1024, 16, 20, 36, "lru"});
    const Addr capacity = 2 * 1024 * 1024 / kLineSize;
    for (Addr a = 0; a < capacity; ++a)
        cache.fill(a, 0, mem::PfClass::None, kInvalidPC, false);
    Addr a = capacity;
    Cycle cycle = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookupDemand(a, cycle).hit);
        benchmark::DoNotOptimize(
            cache.fill(a, cycle + 200, mem::PfClass::None, kInvalidPC,
                       false)
                .valid);
        a += 37;
        ++cycle;
    }
    if (cache.stats().demandHits != 0)
        state.SkipWithError("a lookup hit; the bench measures misses");
}
BENCHMARK(BM_CacheMissFill);

void
BM_BloomInsertEstimate(benchmark::State &state)
{
    pf::BloomFilter bloom(1 << 18, 4);
    std::uint64_t k = 0;
    for (auto _ : state) {
        bloom.insert(k++);
        if ((k & 0xfff) == 0)
            benchmark::DoNotOptimize(bloom.estimateCardinality());
    }
}
BENCHMARK(BM_BloomInsertEstimate);

void
BM_TrainingUnitSwap(benchmark::State &state)
{
    pf::TrainingUnit tu;
    PC pc = 0;
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tu.swap(pc, a));
        pc = (pc + 0x40) & 0x3fff;
        ++a;
    }
}
BENCHMARK(BM_TrainingUnitSwap);

/** Records driven through BM_SystemStep (also recorded in the JSON
 *  context so per-record throughput is comparable across PRs). */
constexpr int kSystemStepRecords = 500000;

/** The shared BM_SystemStep workload: a mutating pointer chase, the
 *  access idiom the temporal-prefetcher pipelines are built for. */
const trace::Trace &
systemStepTrace()
{
    static const trace::Trace t = [] {
        workloads::StreamParams p;
        p.pc = 0x400000;
        p.regionBase = 1ull << 33;
        p.seed = 11;
        workloads::ChaseStream stream(p, 50000, 0.02);
        trace::Trace trace;
        for (int i = 0; i < kSystemStepRecords; ++i)
            stream.emit(trace);
        return trace;
    }();
    return t;
}

/**
 * End-to-end records/sec of the per-record system step, one bench per
 * pipeline. items_per_second in BENCH_micro.json is the regression
 * gate: it must not drift down across PRs.
 */
void
BM_SystemStep(benchmark::State &state, sim::L2PfKind l2_kind)
{
    const trace::Trace &t = systemStepTrace();

    sim::SystemConfig cfg = sim::SystemConfig::table1();
    cfg.l2Pf = l2_kind;
    cfg.warmupRecords = 0;

    for (auto _ : state) {
        state.PauseTiming();
        sim::System sys(cfg);
        state.ResumeTiming();
        benchmark::DoNotOptimize(sys.run(t));
        state.SetItemsProcessed(state.items_processed()
                                + static_cast<std::int64_t>(t.size()));
    }
}
// "prophet" runs with a default (hint-free) binary: the hint-buffer,
// MVB and CSR machinery is exercised, which is what the throughput
// gate cares about.
BENCHMARK_CAPTURE(BM_SystemStep, none, sim::L2PfKind::None)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(BM_SystemStep, triage, sim::L2PfKind::Triage)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(BM_SystemStep, triangel, sim::L2PfKind::Triangel)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(BM_SystemStep, prophet, sim::L2PfKind::Prophet)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

/**
 * Sampled fast-mode counterpart of BM_SystemStep: same trace, same
 * pipelines, a representative sparse schedule (20k warm + 10k window
 * per 100k interval = 30% of records stepped). items_per_second
 * counts *effective* (trace) records — the number sweeps experience
 * — so its ratio over BM_SystemStep is the fast mode's speedup and
 * the perf-diff step catches regressions in the skip machinery.
 */
void
BM_SystemStepSampled(benchmark::State &state, sim::L2PfKind l2_kind)
{
    const trace::Trace &t = systemStepTrace();

    sim::SystemConfig cfg = sim::SystemConfig::table1();
    cfg.l2Pf = l2_kind;
    cfg.warmupRecords = 0;
    cfg.sampling.enabled = true;
    cfg.sampling.warmupRecords = 20000;
    cfg.sampling.windowRecords = 10000;
    cfg.sampling.intervalRecords = 100000;

    for (auto _ : state) {
        state.PauseTiming();
        sim::System sys(cfg);
        state.ResumeTiming();
        benchmark::DoNotOptimize(sys.run(t));
        state.SetItemsProcessed(state.items_processed()
                                + static_cast<std::int64_t>(t.size()));
    }
}
BENCHMARK_CAPTURE(BM_SystemStepSampled, none, sim::L2PfKind::None)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(BM_SystemStepSampled, triage, sim::L2PfKind::Triage)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(BM_SystemStepSampled, triangel,
                  sim::L2PfKind::Triangel)
    ->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(BM_SystemStepSampled, prophet,
                  sim::L2PfKind::Prophet)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

/** Scratch trace-cache directory, removed at process scope end. */
struct ScratchCacheDir
{
    ScratchCacheDir()
        : path(std::filesystem::temp_directory_path()
               / ("prophet_bench_cache_"
                  + std::to_string(static_cast<unsigned long>(
                      ::getpid()))))
    {
        std::filesystem::remove_all(path);
    }

    ~ScratchCacheDir() { std::filesystem::remove_all(path); }

    std::filesystem::path path;
};

/**
 * Trace-cache I/O throughput (records/sec under items_per_second),
 * so the warm-load speed the on-disk cache exists for is tracked in
 * BENCH_micro.json alongside the system-step numbers.
 */
void
BM_TraceCacheStore(benchmark::State &state)
{
    const trace::Trace &t = systemStepTrace();
    ScratchCacheDir scratch;
    trace::TraceCache cache(scratch.path.string());
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.store("bench", t.size(), t));
        state.SetItemsProcessed(state.items_processed()
                                + static_cast<std::int64_t>(t.size()));
    }
}
BENCHMARK(BM_TraceCacheStore)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

void
BM_TraceCacheLoad(benchmark::State &state)
{
    const trace::Trace &t = systemStepTrace();
    ScratchCacheDir scratch;
    trace::TraceCache cache(scratch.path.string());
    if (!cache.store("bench", t.size(), t)) {
        state.SkipWithError("store failed");
        return;
    }
    trace::Trace out;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.load("bench", t.size(), out));
        state.SetItemsProcessed(state.items_processed()
                                + static_cast<std::int64_t>(t.size()));
    }
    if (out.size() != t.size())
        state.SkipWithError("load mismatch");
}
BENCHMARK(BM_TraceCacheLoad)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

/** Records of the BM_IdentifyKernels trace, rpg2_graph's length. */
constexpr std::size_t kKernelIdRecords = 500000;

/** A pagerank trace, its resolver, and its baseline per-PC misses. */
struct KernelIdInput
{
    trace::GeneratorPtr generator;
    trace::Trace trace;
    FlatMap<PC, std::uint64_t> pcMisses;
};

const KernelIdInput &
kernelIdInput()
{
    static const KernelIdInput in = [] {
        KernelIdInput k;
        k.generator = workloads::makeWorkload("pagerank_100000_100",
                                              kKernelIdRecords);
        k.trace = k.generator->generate();
        sim::SystemConfig cfg = sim::SystemConfig::table1();
        cfg.l2Pf = sim::L2PfKind::None;
        sim::System sys(cfg, k.generator->resolver());
        k.pcMisses = sys.run(k.trace).pcMisses;
        return k;
    }();
    return in;
}

/**
 * RPG2 kernel identification over a whole trace (records/sec under
 * items_per_second): the profile-analysis step RPG2 runs once per
 * job before its tuning runs. The trace and the baseline's per-PC
 * misses are built once, outside the timing.
 */
void
BM_IdentifyKernels(benchmark::State &state)
{
    const KernelIdInput &in = kernelIdInput();
    std::size_t found = 0;
    for (auto _ : state) {
        auto kernels = rpg2::identifyKernels(in.trace, in.pcMisses,
                                             in.generator->resolver());
        found = kernels.size();
        benchmark::DoNotOptimize(kernels.data());
        state.SetItemsProcessed(
            state.items_processed()
            + static_cast<std::int64_t>(in.trace.size()));
    }
    if (found == 0)
        state.SkipWithError("no kernel identified");
}
BENCHMARK(BM_IdentifyKernels)
    ->Unit(benchmark::kMillisecond)->Iterations(10);

} // anonymous namespace

/**
 * Like BENCHMARK_MAIN(), but defaults to also writing the results as
 * machine-readable JSON (wall-clock per component) to
 * BENCH_micro.json, so CI can track the simulator's own performance
 * trajectory across PRs. Explicit --benchmark_out flags override.
 */
int
main(int argc, char **argv)
{
    bool has_out = false, fmt_is_json = true, has_fmt = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0
            || std::strcmp(argv[i], "--benchmark_out") == 0) {
            has_out = true;
        } else if (std::strncmp(argv[i], "--benchmark_out_format=",
                                23) == 0) {
            has_fmt = true;
            fmt_is_json = std::strcmp(argv[i] + 23, "json") == 0;
        }
    }

    std::vector<char *> args(argv, argv + argc);
    static char out_flag[] = "--benchmark_out=BENCH_micro.json";
    static char fmt_flag[] = "--benchmark_out_format=json";
    if (!has_out) {
        if (fmt_is_json) {
            // Default output; add the format flag only when the user
            // didn't supply their own.
            args.push_back(out_flag);
            if (!has_fmt)
                args.push_back(fmt_flag);
        } else {
            // A non-JSON format with no out file: don't write a
            // mis-labelled BENCH_micro.json.
            std::fprintf(stderr,
                         "bench_micro: non-json --benchmark_out_format "
                         "without --benchmark_out; skipping default "
                         "BENCH_micro.json\n");
        }
    }

    int eff_argc = static_cast<int>(args.size());
    benchmark::Initialize(&eff_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(eff_argc, args.data()))
        return 1;

    // Run metadata in the JSON context block, so the perf trajectory
    // stays interpretable across machines and PRs: how parallel the
    // host is, how much work BM_SystemStep represents, and when the
    // numbers were taken.
    {
        benchmark::AddCustomContext("timestamp_iso8601",
                                    prophet::iso8601UtcNow());
        benchmark::AddCustomContext(
            "hardware_threads",
            std::to_string(std::thread::hardware_concurrency()));
        benchmark::AddCustomContext(
            "system_step_records",
            std::to_string(kSystemStepRecords));
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
