#include "rpg2/kernel_id.hh"

#include <algorithm>

namespace prophet::rpg2
{

std::vector<Kernel>
identifyKernels(const trace::Trace &t,
                const FlatMap<PC, std::uint64_t> &pc_misses,
                const trace::IndirectResolver *resolver,
                const KernelIdConfig &cfg)
{
    std::vector<Kernel> kernels;
    if (!resolver)
        return kernels;

    std::uint64_t total_misses = 0;
    for (const auto &[pc, misses] : pc_misses)
        total_misses += misses;
    if (total_misses == 0)
        return kernels;

    // Per-PC stride statistics over the trace, plus the dependent
    // consumer that follows each PC (the indirect load a[b[i]] whose
    // misses the kernel's prefetches would cover).
    struct PcStat
    {
        Addr first = kInvalidAddr;
        Addr last = kInvalidAddr;
        std::uint64_t accesses = 0;
        FlatMap<std::int64_t, std::uint64_t> deltas;
        PC consumer = kInvalidPC;
    };
    // One pass over the trace's SoA arrays: this pass only needs PCs,
    // byte addresses, and the depends flag, so it streams those
    // arrays instead of dragging whole records through cache.
    const std::size_t n = t.size();
    const PC *pcs = t.pcData();
    const Addr *addrs = t.addrData();
    const std::uint32_t *metas = t.metaData();

    FlatMap<PC, PcStat> stats;
    for (std::size_t i = 0; i < n; ++i) {
        const PC pc = pcs[i];
        auto [it, inserted] = stats.emplace(pc);
        PcStat &s = it->second;
        if (inserted)
            s.first = addrs[i];
        ++s.accesses;
        if (s.last != kInvalidAddr) {
            auto d = static_cast<std::int64_t>(addrs[i])
                - static_cast<std::int64_t>(s.last);
            if (d != 0)
                ++s.deltas[d];
        }
        s.last = addrs[i];
        // Find this PC's dependent consumer within a short forward
        // window (other accesses, e.g. edge weights, may interleave
        // between the kernel load and the indirect use).
        if (s.consumer == kInvalidPC) {
            for (std::size_t j = i + 1; j < n && j <= i + 4; ++j) {
                if (pcs[j] == pc)
                    break;
                if (trace::Trace::dependsOf(metas[j])) {
                    s.consumer = pcs[j];
                    break;
                }
            }
        }
    }

    for (const auto &[pc, s] : stats) {
        if (s.accesses < cfg.minAccesses || s.deltas.empty())
            continue;

        // Miss share counts the kernel's own misses plus its
        // dependent consumer's: the prefetch covers both the kernel
        // line and the indirect target.
        std::uint64_t misses = 0;
        if (auto it = pc_misses.find(pc); it != pc_misses.end())
            misses += it->second;
        if (s.consumer != kInvalidPC) {
            if (auto it = pc_misses.find(s.consumer);
                it != pc_misses.end())
                misses += it->second;
        }
        double share = static_cast<double>(misses)
            / static_cast<double>(total_misses);
        if (share < cfg.minMissShare)
            continue;

        // The dominant stride: the most frequent delta, the smallest
        // one on a tie.
        std::int64_t best_delta = 0;
        std::uint64_t best_count = 0, delta_total = 0;
        for (const auto &[d, c] : s.deltas) {
            delta_total += c;
            if (c > best_count || (c == best_count && d < best_delta)) {
                best_count = c;
                best_delta = d;
            }
        }
        double coverage = static_cast<double>(best_count)
            / static_cast<double>(delta_total);
        if (coverage < cfg.minStrideCoverage)
            continue;

        // The runtime must be able to compute the indirect target
        // from an address this PC actually accessed.
        if (!resolver->resolve(pc, s.first, 1).has_value())
            continue;

        kernels.push_back(Kernel{pc, best_delta, coverage, share});
    }

    std::sort(kernels.begin(), kernels.end(),
              [](const Kernel &a, const Kernel &b) {
                  if (a.missShare != b.missShare)
                      return a.missShare > b.missShare;
                  return a.pc < b.pc;
              });
    return kernels;
}

} // namespace prophet::rpg2
