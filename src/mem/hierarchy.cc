#include "mem/hierarchy.hh"

#include "common/log.hh"

namespace prophet::mem
{

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : l1Cache(config.l1d),
      l2Cache(config.l2),
      llcCache(config.llc),
      dramModel(config.dram)
{}

void
Hierarchy::writeback(const Eviction &ev, int from_level, Cycle cycle)
{
    if (!ev.valid || !ev.dirty)
        return;
    if (from_level <= 0 && l2Cache.markDirty(ev.lineAddr))
        return;
    if (from_level <= 1 && llcCache.markDirty(ev.lineAddr))
        return;
    dramModel.write(cycle);
}

AccessOutcome
Hierarchy::access(PC pc, Addr addr, bool is_write, Cycle cycle)
{
    (void)pc;
    Addr line = lineAddr(addr);
    AccessOutcome out;
    out.lineAddr = line;

    auto note_prefetch_hit = [&](const LookupResult &r) {
        if (r.wasPrefetched) {
            out.prefetchUseful = true;
            out.prefetchClass = r.prefetchClass;
            out.prefetchPc = r.prefetchPc;
            out.prefetchLate = r.wasLate;
        }
    };

    // L1 lookup; a store hit marks the line dirty in the same scan.
    LookupResult r1 = l1Cache.lookupDemand(line, cycle, is_write);
    if (r1.hit) {
        out.level = HitLevel::L1;
        out.readyAt = r1.readyAt;
        note_prefetch_hit(r1);
        return out;
    }

    // L2 lookup: this is the temporal prefetcher's observation point.
    out.l2Accessed = true;
    Cycle l2_cycle = cycle + l1Cache.hitLatency();
    LookupResult r2 = l2Cache.lookupDemand(line, l2_cycle);
    if (r2.hit) {
        out.level = HitLevel::L2;
        out.l2Hit = true;
        out.readyAt = r2.readyAt;
        note_prefetch_hit(r2);
        writeback(l1Cache.fill(line, r2.readyAt, PfClass::None, kInvalidPC,
                               is_write),
                  0, cycle);
        return out;
    }

    // LLC lookup.
    Cycle llc_cycle = l2_cycle + l2Cache.hitLatency();
    LookupResult r3 = llcCache.lookupDemand(line, llc_cycle);
    if (r3.hit) {
        out.level = HitLevel::LLC;
        out.readyAt = r3.readyAt;
        note_prefetch_hit(r3);
        writeback(l2Cache.fill(line, r3.readyAt, PfClass::None, kInvalidPC,
                               false),
                  1, cycle);
        writeback(l1Cache.fill(line, r3.readyAt, PfClass::None, kInvalidPC,
                               is_write),
                  0, cycle);
        return out;
    }

    // DRAM.
    Cycle dram_cycle = llc_cycle + llcCache.hitLatency();
    Cycle done = dramModel.read(dram_cycle, false);
    out.level = HitLevel::Dram;
    out.readyAt = done;
    writeback(llcCache.fill(line, done, PfClass::None, kInvalidPC, false), 2,
              cycle);
    writeback(l2Cache.fill(line, done, PfClass::None, kInvalidPC, false), 1,
              cycle);
    writeback(l1Cache.fill(line, done, PfClass::None, kInvalidPC, is_write), 0,
              cycle);
    return out;
}

L1PrefetchOutcome
Hierarchy::prefetchL1(PC pc, Addr line_addr, Cycle cycle)
{
    L1PrefetchOutcome out;
    if (l1Cache.contains(line_addr))
        return out;
    out.issued = true;
    out.l2Accessed = true;

    Cycle l2_cycle = cycle + l1Cache.hitLatency();
    LookupResult r2 = l2Cache.lookupPrefetch(line_addr, l2_cycle);
    if (r2.hit) {
        out.l2Hit = true;
        writeback(l1Cache.fill(line_addr, r2.readyAt, PfClass::L1, pc, false),
                  0, cycle);
        return out;
    }

    Cycle llc_cycle = l2_cycle + l2Cache.hitLatency();
    LookupResult r3 = llcCache.lookupPrefetch(line_addr, llc_cycle);
    Cycle ready;
    if (r3.hit) {
        ready = r3.readyAt;
    } else {
        Cycle dram_cycle = llc_cycle + llcCache.hitLatency();
        ready = dramModel.read(dram_cycle, true);
        writeback(llcCache.fill(line_addr, ready, PfClass::L1, pc,
                                 false),
                  2, cycle);
    }
    writeback(l2Cache.fill(line_addr, ready, PfClass::L1, pc, false),
              1, cycle);
    writeback(l1Cache.fill(line_addr, ready, PfClass::L1, pc, false),
              0, cycle);
    return out;
}

bool
Hierarchy::prefetchL2(PC pc, Addr line_addr, Cycle cycle)
{
    if (l2Cache.contains(line_addr))
        return false;
    ++l2PfIssued;

    Cycle llc_cycle = cycle + l2Cache.hitLatency();
    LookupResult r3 = llcCache.lookupPrefetch(line_addr, llc_cycle);
    Cycle ready;
    if (r3.hit) {
        ready = r3.readyAt;
    } else {
        Cycle dram_cycle = llc_cycle + llcCache.hitLatency();
        ready = dramModel.read(dram_cycle, true);
        writeback(llcCache.fill(line_addr, ready, PfClass::L2, pc,
                                 false),
                  2, cycle);
    }
    writeback(l2Cache.fill(line_addr, ready, PfClass::L2, pc, false),
              1, cycle);
    return true;
}

void
Hierarchy::resetStats()
{
    l1Cache.resetStats();
    l2Cache.resetStats();
    llcCache.resetStats();
    dramModel.resetStats();
    l2PfIssued = 0;
}

} // namespace prophet::mem
