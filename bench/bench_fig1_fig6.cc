/**
 * @file
 * Figures 1 and 6: the motivational analyses.
 *
 * Figure 1: the metadata access pattern of omnetpp's hot event-queue
 * PC under a no-insertion-policy temporal prefetcher, and how
 * Triangel's PatternConf tracks it — including the fraction of
 * genuinely-repeating accesses rejected while the confidence sits
 * below threshold (the "blue stars" falsely filtered out).
 *
 * Figure 6: per-PC prefetching accuracy of omnetpp under the
 * simplified temporal prefetcher, showing the distinct accuracy
 * levels that make profile-guided classification possible.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hh"
#include "prefetch/triangel.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "stats/table.hh"
#include "workloads/registry.hh"

namespace
{

/** Figure 1 reproduction: PatternConf vs ground truth on omnetpp. */
std::string
figure1(const prophet::trace::Trace &t)
{
    using namespace prophet;

    // This pass only needs PCs and line addresses: stream the
    // trace's SoA arrays directly.
    const std::size_t n = t.size();
    const PC *pcs = t.pcData();
    const Addr *lines = t.lineAddrData();

    // Identify the hottest PC (the event-queue walk).
    std::unordered_map<PC, std::uint64_t> counts;
    for (std::size_t i = 0; i < n; ++i)
        ++counts[pcs[i]];
    PC hot = 0;
    std::uint64_t best = 0;
    for (const auto &[pc, c] : counts) {
        if (c > best) {
            best = c;
            hot = pc;
        }
    }

    // Ground truth per access: does this (prev -> cur) correlation
    // ever repeat later? (Blue vs red dots.)
    std::vector<std::pair<Addr, Addr>> stream;
    Addr last = kInvalidAddr;
    for (std::size_t i = 0; i < n; ++i) {
        if (pcs[i] != hot)
            continue;
        Addr line = lines[i];
        if (last != kInvalidAddr)
            stream.emplace_back(last, line);
        last = line;
    }
    std::map<std::pair<Addr, Addr>, unsigned> pair_counts;
    for (const auto &p : stream)
        ++pair_counts[p];

    // Triangel's PatternConf walking the same stream.
    pf::TriangelConfig cfg;
    cfg.numSets = 2048;
    cfg.maxWays = 8;
    cfg.duellerResizing = false;
    pf::TriangelPrefetcher tri(cfg);
    std::vector<pf::PrefetchRequest> sink;

    std::uint64_t useful = 0, useless = 0;
    std::uint64_t rejected_useful = 0, low_conf_samples = 0;
    Addr prev = kInvalidAddr;
    std::size_t idx = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (pcs[i] != hot)
            continue;
        Addr line = lines[i];
        if (prev != kInvalidAddr && idx < stream.size()) {
            bool repeats = pair_counts[stream[idx]] > 1;
            if (repeats)
                ++useful;
            else
                ++useless;
            bool conf_low = tri.patternConf(hot) < cfg.confThreshold;
            if (conf_low) {
                ++low_conf_samples;
                if (repeats)
                    ++rejected_useful; // a falsely-filtered blue star
            }
            ++idx;
        }
        sink.clear();
        tri.observe(hot, line, false, 0, sink);
        prev = line;
    }

    prophet::stats::Table table({"quantity", "value"});
    auto pct = [](std::uint64_t a, std::uint64_t b) {
        return prophet::stats::Table::fmt(
            b ? 100.0 * static_cast<double>(a)
                    / static_cast<double>(b)
              : 0.0, 1) + "%";
    };
    table.addRow({"hot-PC metadata accesses",
                  std::to_string(useful + useless)});
    table.addRow({"repeating (blue) accesses",
                  pct(useful, useful + useless)});
    table.addRow({"one-off (red) accesses",
                  pct(useless, useful + useless)});
    table.addRow({"accesses seen at PatternConf < threshold",
                  pct(low_conf_samples, useful + useless)});
    table.addRow({"repeating accesses rejected by PatternConf",
                  pct(rejected_useful, useful)});
    return "== Figure 1: omnetpp hot-PC metadata access pattern "
           "==\n\n"
        + table.render() + "\n";
}

/** Figure 6: per-PC accuracy levels under the simplified TP. */
std::string
figure6(prophet::sim::Runner &runner)
{
    using namespace prophet;
    auto profile = runner.profileWorkload("omnetpp");

    std::vector<std::pair<PC, core::PcProfile>> pcs(
        profile.perPc.begin(), profile.perPc.end());
    std::sort(pcs.begin(), pcs.end(), [](auto &a, auto &b) {
        return a.second.accuracy > b.second.accuracy;
    });

    stats::Table table({"PC", "issued", "accuracy", "level"});
    for (const auto &[pc, prof] : pcs) {
        if (prof.issuedPrefetches < 100)
            continue;
        const char *level = prof.accuracy >= 0.6
            ? "High"
            : prof.accuracy >= 0.25 ? "Medium" : "Low";
        table.addRow({std::to_string(pc & 0xffffff),
                      std::to_string(prof.issuedPrefetches),
                      stats::Table::fmt(prof.accuracy), level});
    }
    return "== Figure 6: omnetpp per-PC prefetching accuracy "
           "levels ==\n\n"
        + table.render() + "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    unsigned threads = prophet::bench::parseThreads(argc, argv);
    prophet::sim::Runner runner;
    prophet::sim::SweepEngine engine(threads);

    // The two analyses are independent jobs; rendering into strings
    // keeps stdout in figure order at any thread count.
    std::string reports[2];
    engine.forEach(2, [&](std::size_t i) {
        if (i == 0)
            reports[0] = figure1(runner.traceFor("omnetpp"));
        else
            reports[1] = figure6(runner);
    });
    for (const auto &r : reports)
        std::fputs(r.c_str(), stdout);
    return 0;
}
