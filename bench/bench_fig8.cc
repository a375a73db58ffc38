/**
 * @file
 * Figure 8: distribution of Markov target counts (T = 1..5) — for
 * each memory line address in a workload's L2-relevant stream, how
 * many distinct successor lines follow it across the trace (per-PC
 * streams, as the temporal prefetcher trains).
 *
 * Paper shape: ~55% of addresses have a single target, ~21% two,
 * ~10% three — the motivation for the Multi-path Victim Buffer.
 */

#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>

#include "bench_util.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "trace/trace.hh"
#include "workloads/registry.hh"

int
main(int argc, char **argv)
{
    using namespace prophet;
    constexpr unsigned kMaxT = 5;
    unsigned threads = bench::parseThreads(argc, argv);
    sim::Runner runner;
    sim::SweepEngine engine(threads);
    const auto &workloads = workloads::specWorkloads();

    // One trace-analysis job per workload, merged by index; progress
    // goes to stderr so stdout is bit-identical across thread counts.
    std::vector<std::vector<double>> fracs(workloads.size());
    engine.forEach(workloads.size(), [&](std::size_t wi) {
        const auto &w = workloads[wi];
        std::fprintf(stderr, "analyzing %s...\n", w.c_str());
        const trace::Trace &t = runner.traceFor(w);

        // Per-PC successor sets per line address, as the training
        // unit observes them. Only PCs and line addresses are
        // needed, so the pass streams the trace's PC and address
        // arrays.
        const std::size_t n = t.size();
        const PC *pcs = t.pcData();
        const Addr *addrs = t.addrData();
        std::unordered_map<PC, Addr> last;
        std::unordered_map<Addr, std::set<Addr>> successors;
        for (std::size_t i = 0; i < n; ++i) {
            Addr line = lineAddr(addrs[i]);
            auto it = last.find(pcs[i]);
            if (it != last.end() && it->second != line)
                successors[it->second].insert(line);
            last[pcs[i]] = line;
        }

        std::vector<std::uint64_t> counts(kMaxT, 0);
        std::uint64_t total = 0;
        for (const auto &[addr, succ] : successors) {
            (void)addr;
            std::size_t n = std::min<std::size_t>(succ.size(), kMaxT);
            ++counts[n - 1];
            ++total;
        }
        fracs[wi].resize(kMaxT);
        for (unsigned i = 0; i < kMaxT; ++i)
            fracs[wi][i] = total ? static_cast<double>(counts[i])
                    / static_cast<double>(total)
                                 : 0.0;
    });

    stats::Table table({"workload", "T=1", "T=2", "T=3", "T=4",
                        "T=5+"});
    std::vector<std::vector<double>> cols(kMaxT);
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        std::vector<std::string> row{workloads[wi]};
        for (unsigned i = 0; i < kMaxT; ++i) {
            double frac = fracs[wi][i];
            row.push_back(stats::Table::fmt(frac));
            if (frac > 0.0)
                cols[i].push_back(frac);
        }
        table.addRow(std::move(row));
    }

    std::vector<std::string> geo{"Geomean"};
    for (unsigned i = 0; i < kMaxT; ++i)
        geo.push_back(stats::Table::fmt(stats::geomean(cols[i])));
    table.addRow(std::move(geo));

    std::printf("\n== Figure 8: Markov target count distribution "
                "==\n\n%s\n",
                table.render().c_str());
    return 0;
}
