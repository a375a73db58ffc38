#include "sim/reports.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>

#include "common/cancellation.hh"
#include "prefetch/triangel.hh"
#include "sim/runner.hh"
#include "sim/storage.hh"
#include "sim/system.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "trace/trace.hh"

namespace prophet::sim
{

namespace
{

using stats::Table;

/**
 * @p section of every workload, one pass each through @p each,
 * concatenated in workload order.
 */
template <typename Section>
std::string
perWorkload(const ForEachWorkload &each,
            const std::vector<std::string> &workloads, Section section)
{
    std::vector<std::string> sections(workloads.size());
    each([&](std::size_t i) {
        sections[i] = section(workloads[i]);
    });
    std::string out;
    for (const auto &s : sections)
        out += s;
    return out;
}

/** A trace pass's cancellation poll, at System's interval. */
void
pollAt(std::size_t record)
{
    if ((record & (System::kPollRecords - 1)) == 0)
        cancellation::poll();
}

/** One storage breakdown with its total, under @p title. */
std::string
storageBreakdown(const char *title, const std::vector<StorageItem> &items)
{
    Table t({"component", "KiB"});
    for (const auto &it : items)
        t.addRow({it.component, Table::fmt(it.kib(), 2)});
    t.addRow({"total",
              Table::fmt(static_cast<double>(totalBits(items)) / 8192.0,
                         2)});
    return std::string(title) + "\n" + t.render() + "\n";
}

/** Figure 1 on one workload: PatternConf vs ground truth. */
std::string
patternConfSection(const std::string &workload, const trace::Trace &t)
{
    // This pass only needs PCs and line addresses: stream the
    // trace's PC and address arrays directly.
    const std::size_t n = t.size();
    const PC *pcs = t.pcData();
    const Addr *addrs = t.addrData();

    // Identify the hottest PC (omnetpp's event-queue walk).
    std::unordered_map<PC, std::uint64_t> counts;
    for (std::size_t i = 0; i < n; ++i) {
        pollAt(i);
        ++counts[pcs[i]];
    }
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
        pollAt(i);
        if (pcs[i] != hot)
            continue;
        Addr line = lineAddr(addrs[i]);
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
        pollAt(i);
        if (pcs[i] != hot)
            continue;
        Addr line = lineAddr(addrs[i]);
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

    Table table({"quantity", "value"});
    auto pct = [](std::uint64_t a, std::uint64_t b) {
        return Table::fmt(b ? 100.0 * static_cast<double>(a)
                                  / static_cast<double>(b)
                            : 0.0,
                          1)
            + "%";
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
    return "== Figure 1: " + workload
        + " hot-PC metadata access pattern ==\n\n" + table.render()
        + "\n";
}

/** Figure 6 on one workload: per-PC accuracy levels. */
std::string
pcAccuracySection(const std::string &workload,
                  const core::ProfileSnapshot &profile)
{
    std::vector<std::pair<PC, core::PcProfile>> pcs(
        profile.perPc.begin(), profile.perPc.end());
    std::sort(pcs.begin(), pcs.end(), [](auto &a, auto &b) {
        return a.second.accuracy > b.second.accuracy;
    });

    Table table({"PC", "issued", "accuracy", "level"});
    for (const auto &[pc, prof] : pcs) {
        if (prof.issuedPrefetches < 100)
            continue;
        const char *level = prof.accuracy >= 0.6
            ? "High"
            : prof.accuracy >= 0.25 ? "Medium" : "Low";
        table.addRow({std::to_string(pc & 0xffffff),
                      std::to_string(prof.issuedPrefetches),
                      Table::fmt(prof.accuracy), level});
    }
    return "== Figure 6: " + workload
        + " per-PC prefetching accuracy levels ==\n\n" + table.render()
        + "\n";
}

/** Figure 8's columns: T = 1 .. kMaxTargets-1, then kMaxTargets+. */
constexpr unsigned kMaxTargets = 5;

/**
 * The share of line addresses with T distinct successors, T = 1 ..
 * kMaxTargets (the last bucket holds every larger count).
 */
std::vector<double>
targetCountFractions(const trace::Trace &t)
{
    // Per-PC successor sets per line address, as the training unit
    // observes them. Only PCs and line addresses are needed, so the
    // pass streams the trace's PC and address arrays.
    const std::size_t n = t.size();
    const PC *pcs = t.pcData();
    const Addr *addrs = t.addrData();
    std::unordered_map<PC, Addr> last;
    std::unordered_map<Addr, std::set<Addr>> successors;
    for (std::size_t i = 0; i < n; ++i) {
        pollAt(i);
        Addr line = lineAddr(addrs[i]);
        auto it = last.find(pcs[i]);
        if (it != last.end() && it->second != line)
            successors[it->second].insert(line);
        last[pcs[i]] = line;
    }

    std::vector<std::uint64_t> counts(kMaxTargets, 0);
    std::uint64_t total = 0;
    for (const auto &[addr, succ] : successors) {
        (void)addr;
        std::size_t n = std::min<std::size_t>(succ.size(), kMaxTargets);
        ++counts[n - 1];
        ++total;
    }
    std::vector<double> fracs(kMaxTargets);
    for (unsigned i = 0; i < kMaxTargets; ++i)
        fracs[i] = total ? static_cast<double>(counts[i])
                / static_cast<double>(total)
                         : 0.0;
    return fracs;
}

} // anonymous namespace

std::string
systemConfigReport(const SystemConfig &cfg)
{
    Table t({"Module", "Configuration"});
    t.addRow({"Core",
              "5-wide issue model, 288-entry ROB (analytic OoO)"});
    auto cache_row = [&](const char *name,
                         const prophet::mem::CacheConfig &c) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%llu KB, %u-way, 64B line, %u MSHRs, %s, "
                      "%llu cycles hit latency",
                      static_cast<unsigned long long>(c.sizeBytes
                                                      / 1024),
                      c.assoc, c.mshrs, c.replacement.c_str(),
                      static_cast<unsigned long long>(c.hitLatency));
        t.addRow({name, buf});
    };
    cache_row("Private L1D cache", cfg.hier.l1d);
    t.addRow({"L1D prefetcher", "degree-8 stride prefetcher"});
    cache_row("Private L2 cache", cfg.hier.l2);
    cache_row("Shared L3 cache", cfg.hier.llc);
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "LPDDR5-class: %llu-cycle access, %llu cycles/"
                      "64B transfer, %u channel(s)",
                      static_cast<unsigned long long>(
                          cfg.hier.dram.accessLatency),
                      static_cast<unsigned long long>(
                          cfg.hier.dram.cyclesPerTransfer),
                      cfg.hier.dram.channels);
        t.addRow({"Memory", buf});
    }
    t.addRow({"Metadata table",
              "up to 8 LLC ways = 1 MB = 196,608 compressed entries "
              "(12 x 41-bit per 64B line)"});

    return "== Table 1: System Configuration ==\n\n" + t.render()
        + "\n";
}

std::string
storageReport()
{
    return "== Section 5.10: storage overhead ==\n\n"
        + storageBreakdown("Prophet", prophetStorage())
        + storageBreakdown("Triage management structures",
                           triageStorage())
        + storageBreakdown("Triangel management structures",
                           triangelStorage());
}

std::string
patternConfReport(Runner &runner, const ForEachWorkload &each,
                  const std::vector<std::string> &workloads)
{
    return perWorkload(each, workloads, [&](const std::string &w) {
        return patternConfSection(w, runner.traceFor(w));
    });
}

std::string
pcAccuracyReport(Runner &runner, const ForEachWorkload &each,
                 const std::vector<std::string> &workloads)
{
    return perWorkload(each, workloads, [&](const std::string &w) {
        return pcAccuracySection(w, runner.profileWorkload(w));
    });
}

std::string
markovTargetsReport(Runner &runner, const ForEachWorkload &each,
                    const std::vector<std::string> &workloads)
{
    std::vector<std::vector<double>> fracs(workloads.size());
    each([&](std::size_t wi) {
        fracs[wi] = targetCountFractions(runner.traceFor(workloads[wi]));
    });

    Table table({"workload", "T=1", "T=2", "T=3", "T=4", "T=5+"});
    std::vector<std::vector<double>> cols(kMaxTargets);
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        std::vector<std::string> row{workloads[wi]};
        for (unsigned i = 0; i < kMaxTargets; ++i) {
            double frac = fracs[wi][i];
            row.push_back(Table::fmt(frac));
            if (frac > 0.0)
                cols[i].push_back(frac);
        }
        table.addRow(std::move(row));
    }

    std::vector<std::string> geo{"Geomean"};
    for (unsigned i = 0; i < kMaxTargets; ++i)
        geo.push_back(Table::fmt(stats::geomean(cols[i])));
    table.addRow(std::move(geo));

    return "\n== Figure 8: Markov target count distribution ==\n\n"
        + table.render() + "\n";
}

} // namespace prophet::sim
