/**
 * @file
 * Section 5.11: memory-hierarchy energy of Prophet vs Triangel
 * (DRAM access = 25x LLC access). The paper reports Prophet adds
 * only ~1.6% energy over Triangel while gaining 14% performance.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/energy.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "workloads/registry.hh"

int
main(int argc, char **argv)
{
    using namespace prophet;
    unsigned threads = bench::parseThreads(argc, argv);
    sim::Runner runner;
    sim::SweepEngine engine(threads);
    const auto &workloads = workloads::specWorkloads();

    // One job per (workload x system) cell, merged by index so the
    // table is identical at any thread count; progress goes to
    // stderr.
    std::vector<sim::RunStats> tri(workloads.size());
    std::vector<sim::RunStats> pro(workloads.size());
    engine.forEach(workloads.size() * 2, [&](std::size_t j) {
        const auto &w = workloads[j / 2];
        if (j % 2 == 0)
            tri[j / 2] = runner.run("triangel", w);
        else
            pro[j / 2] = runner.runProphet(w).stats;
        std::fprintf(stderr, "  %s %s done\n", w.c_str(),
                     j % 2 == 0 ? "triangel" : "prophet");
    });

    stats::Table table({"workload", "Triangel (uJ)", "Prophet (uJ)",
                        "Prophet / Triangel"});
    std::vector<double> ratios;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        double e_tri = sim::memoryEnergy(tri[i]).totalNj() / 1000.0;
        double e_pro = sim::memoryEnergy(pro[i]).totalNj() / 1000.0;
        double ratio = e_tri > 0.0 ? e_pro / e_tri : 1.0;
        ratios.push_back(ratio);
        table.addRow({workloads[i], stats::Table::fmt(e_tri, 1),
                      stats::Table::fmt(e_pro, 1),
                      stats::Table::fmt(ratio)});
    }
    table.addRow({"Geomean", "-", "-",
                  stats::Table::fmt(stats::geomean(ratios))});

    std::printf("\n== Section 5.11: memory-hierarchy energy ==\n\n"
                "%s\n",
                table.render().c_str());
    return 0;
}
