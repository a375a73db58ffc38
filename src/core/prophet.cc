#include "core/prophet.hh"

#include <algorithm>
#include <optional>

#include "common/log.hh"

namespace prophet::core
{

ProphetPrefetcher::ProphetPrefetcher(const ProphetConfig &config,
                                     OptimizedBinary binary)
    : cfg(config), bin(std::move(binary)),
      table(config.numSets, config.maxWays,
            std::make_unique<mem::SrripPolicy>()),
      // A configuration without the MVB never touches it: one set
      // keeps its statistics readable without writing a full-size
      // buffer.
      mvb(config.features.mvb ? config.mvbEntries
                              : MultiPathVictimBuffer::kWays,
          config.mvbCandidates)
{
    prophet_assert(cfg.degree >= 1);

    // Program entry: the CSR manipulation instruction configures the
    // metadata table before the first access (Prophet Resizing).
    if (cfg.features.resizing && bin.csr.prophetEnabled) {
        if (bin.csr.temporalDisabled) {
            temporalOff = true;
            table.setAllocatedWays(0);
        } else {
            table.setAllocatedWays(bin.csr.metadataWays);
        }
    }

    table.setPriorityAware(cfg.features.replacement);

    if (cfg.features.mvb) {
        table.setEvictionCallback(
            [this](const pf::MarkovTable::Entry &victim) {
                mvb.offer(victim);
            });
    }
}

unsigned
ProphetPrefetcher::metadataWays() const
{
    return table.allocatedWays();
}

void
ProphetPrefetcher::notifyIssued(PC pc)
{
    profileData.notifyIssued(pc);
}

void
ProphetPrefetcher::notifyUseful(PC pc)
{
    profileData.notifyUseful(pc);
}

void
ProphetPrefetcher::observe(PC pc, Addr line_addr, bool l2_hit,
                           Cycle cycle,
                           std::vector<pf::PrefetchRequest> &out)
{
    (void)cycle;
    if (temporalOff)
        return;

    if (!l2_hit)
        profileData.notifyL2Miss(pc);

    // Hint lookup: demand requests from hinted PCs carry the 3-bit
    // hint to the prefetcher (Section 4.4).
    bool allow_insert = true;
    std::uint8_t priority = 0;
    bool use_insertion = cfg.features.insertion;
    bool use_replacement = cfg.features.replacement;
    std::optional<Hint> hint;
    if (use_insertion || use_replacement)
        hint = bin.hints.lookup(pc);
    if (hint) {
        if (use_insertion)
            allow_insert = hint->allowInsert;
        if (use_replacement)
            priority = hint->allowInsert ? hint->priority : 0;
    }

    // Condemned PCs are discarded entirely: no training, no
    // prediction (Section 4.2).
    if (!allow_insert)
        return;

    if (auto prev = trainer.swap(pc, line_addr)) {
        if (*prev != line_addr)
            table.insert(*prev, line_addr, priority);
    }

    // Prediction: chase the Markov chain; every lookup key also
    // probes the Multi-path Victim Buffer for alternative paths.
    // Fine-grained aggressiveness: hinted PCs chase a chain depth
    // that scales with their priority level, so low-accuracy PCs do
    // not flood the DRAM channel with deep speculative chains.
    bool use_mvb = cfg.features.mvb;
    Addr cur = line_addr;
    unsigned degree = cfg.degree;
    if (use_insertion && hint)
        degree = std::min<unsigned>(degree, 1u + hint->priority);
    for (unsigned d = 0; d < degree; ++d) {
        auto target = table.lookup(cur);
        if (use_mvb) {
            mvbPaths.clear();
            mvb.lookup(cur, target.value_or(kInvalidAddr), mvbPaths);
            for (Addr t : mvbPaths)
                out.push_back(pf::PrefetchRequest{t, pc});
        }
        if (!target)
            break;
        out.push_back(pf::PrefetchRequest{*target, pc});
        cur = *target;
    }
}

ProfileSnapshot
ProphetPrefetcher::takeSnapshot()
{
    profileData.setTableCounters(table.stats().inserts,
                                 table.stats().replacements);
    return profileData.snapshot();
}

} // namespace prophet::core
