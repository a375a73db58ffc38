#include "core/analyzer.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/intmath.hh"
#include "common/log.hh"
#include "prefetch/metadata_format.hh"

namespace prophet::core
{

Analyzer::Analyzer(const AnalyzerConfig &config)
    : cfg(config)
{
    prophet_assert(cfg.nBits >= 1 && cfg.nBits <= 4);
    prophet_assert(cfg.elAcc >= 0.0 && cfg.elAcc <= 1.0);
}

bool
Analyzer::insertionAllowed(double accuracy) const
{
    // Eq. 1: I(acc) = 1 iff acc >= EL_ACC.
    return accuracy >= cfg.elAcc;
}

std::uint8_t
Analyzer::priorityLevel(double accuracy) const
{
    // Eq. 2: level k covers [k/2^n, (k+1)/2^n), clamped to 2^n - 1.
    unsigned levels = 1u << cfg.nBits;
    auto level = static_cast<unsigned>(
        std::floor(accuracy * static_cast<double>(levels)));
    return static_cast<std::uint8_t>(std::min(level, levels - 1));
}

Csr
Analyzer::resize(std::uint64_t allocated_entries) const
{
    Csr csr;
    csr.prophetEnabled = true;

    // Round to the nearest power of two, capped at the entries a
    // 1 MB table accommodates (footnote 4).
    std::uint64_t target = roundNearestPowerOf2(allocated_entries);
    target = std::min<std::uint64_t>(
        target, static_cast<std::uint64_t>(cfg.llcSets)
            * cfg.maxWays * pf::kEntriesPerLine);

    std::uint64_t entries_per_way =
        static_cast<std::uint64_t>(cfg.llcSets) * pf::kEntriesPerLine;
    double ways_real = static_cast<double>(target)
        / static_cast<double>(entries_per_way);

    if (ways_real < 0.5) {
        csr.temporalDisabled = true;
        csr.metadataWays = 0;
        return csr;
    }
    csr.metadataWays = static_cast<unsigned>(std::min<std::uint64_t>(
        divCeil(target, entries_per_way), cfg.maxWays));
    return csr;
}

OptimizedBinary
Analyzer::analyze(const ProfileSnapshot &profile) const
{
    OptimizedBinary bin;
    bin.hints = HintBuffer(cfg.hintCapacity);

    // The hint buffer is limited: focus on the memory instructions
    // contributing the most cache misses (Section 4.4, selected with
    // the MEM_LOAD_RETIRED.L2_MISS event).
    std::vector<std::pair<PC, PcProfile>> by_misses(
        profile.perPc.begin(), profile.perPc.end());
    std::sort(by_misses.begin(), by_misses.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.l2Misses != b.second.l2Misses)
                      return a.second.l2Misses > b.second.l2Misses;
                  return a.first < b.first; // deterministic ties
              });

    for (const auto &[pc, prof] : by_misses) {
        if (bin.hints.size() >= cfg.hintCapacity)
            break;
        Hint hint;
        bool enough_evidence =
            prof.issuedPrefetches >= cfg.minIssuedForFilter;
        hint.allowInsert =
            !enough_evidence || insertionAllowed(prof.accuracy);
        hint.priority =
            hint.allowInsert ? priorityLevel(prof.accuracy) : 0;
        bin.hints.install(pc, hint);
    }

    bin.csr = resize(profile.allocatedEntries);
    return bin;
}

} // namespace prophet::core
