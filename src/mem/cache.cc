#include "mem/cache.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>

#include "common/intmath.hh"
#include "common/log.hh"

namespace prophet::mem
{

Cache::Cache(const CacheConfig &config)
    : label(config.name),
      sets(config.numSets()),
      waysTotal(config.assoc),
      latency(config.hitLatency),
      tags(static_cast<std::size_t>(config.numSets()) * config.assoc,
           kInvalidTag),
      tagLo(tags.size(), kInvalidTagLo),
      flags(tags.size(), 0),
      cold(tags.size()),
      wayIds(config.assoc),
      repl(makePolicy(config.replacement))
{
    prophet_assert(sets > 0 && isPowerOf2(sets));
    prophet_assert(waysTotal > 0);
    for (unsigned w = 0; w < waysTotal; ++w)
        wayIds[w] = w;
    repl->reset(sets, waysTotal);
}

template <bool kFindHole>
int
Cache::scanSet(unsigned set, Addr line_addr, int *hole) const
{
    // Invalid ways hold kInvalidTag, which never equals a real line
    // address, and ways below `reserved` are never filled, so a
    // whole-set scan can only match in the demand partition. With
    // kFindHole the same pass also records the lowest invalid way
    // of the demand partition in *hole (-1 when the set is full);
    // the scan then has to read the whole set on a miss, which it
    // does anyway.
    const std::size_t base = lineIndex(set, 0);
    const Addr *t = tags.data() + base;
    if constexpr (kFindHole)
        *hole = -1;
    unsigned w = 0;
#if defined(__SSE2__)
    // Vector scan of the 32-bit tag array, four ways per compare;
    // the rare low-word match is verified against the full tag.
    // Candidate ways resolve in ascending order, so the result is
    // the same lowest matching way (and lowest hole) the scalar loop
    // returns.
    const std::uint32_t *tl = tagLo.data() + base;
    const __m128i vlo = _mm_set1_epi32(
        static_cast<int>(static_cast<std::uint32_t>(line_addr)));
    const __m128i vinv = _mm_set1_epi32(
        static_cast<int>(kInvalidTagLo));
    const unsigned vec_end = waysTotal & ~3u;
    for (; w < vec_end; w += 4) {
        const __m128i lo = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tl + w));
        __m128i hit = _mm_cmpeq_epi32(lo, vlo);
        if constexpr (kFindHole)
            hit = _mm_or_si128(hit, _mm_cmpeq_epi32(lo, vinv));
        int m = _mm_movemask_ps(_mm_castsi128_ps(hit));
        while (m) {
            const unsigned way =
                w + static_cast<unsigned>(__builtin_ctz(
                    static_cast<unsigned>(m)));
            if (way >= reserved) {
                if (t[way] == line_addr)
                    return static_cast<int>(way);
                if (kFindHole && *hole < 0 && t[way] == kInvalidTag)
                    *hole = static_cast<int>(way);
            }
            m &= m - 1;
        }
    }
#endif
    // The scalar tail (the whole set without SSE2).
    for (w = std::max(w, reserved); w < waysTotal; ++w) {
        if (t[w] == line_addr)
            return static_cast<int>(w);
        if (kFindHole && *hole < 0 && t[w] == kInvalidTag)
            *hole = static_cast<int>(w);
    }
    return -1;
}

int
Cache::findWay(unsigned set, Addr line_addr) const
{
    return scanSet<false>(set, line_addr, nullptr);
}

LookupResult
Cache::lookupDemand(Addr line_addr, Cycle cycle)
{
    unsigned set = setIndex(line_addr);
    int way = findWay(set, line_addr);
    LookupResult res;
    if (way < 0) {
        ++statsData.demandMisses;
        return res;
    }

    std::size_t idx = lineIndex(set, static_cast<unsigned>(way));
    std::uint8_t f = flags[idx];
    const ColdLine &c = cold[idx];
    res.hit = true;
    res.readyAt = cycle + latency;
    if (c.readyAt > cycle) {
        // In-flight fill: pay the residual latency on top.
        res.readyAt = c.readyAt + latency;
        res.wasLate = true;
    }
    if ((f & kFlagPrefetched) && !(f & kFlagDemandTouched)) {
        res.wasPrefetched = true;
        res.prefetchClass = pfClassOf(f);
        res.prefetchPc = c.prefetchPc;
        flags[idx] = f | kFlagDemandTouched;
        ++statsData.prefetchHits;
        if (res.wasLate)
            ++statsData.latePrefetchHits;
    }
    ++statsData.demandHits;
    repl->touch(set, static_cast<unsigned>(way));
    return res;
}

bool
Cache::contains(Addr line_addr) const
{
    return findWay(setIndex(line_addr), line_addr) >= 0;
}

LookupResult
Cache::lookupPrefetch(Addr line_addr, Cycle cycle)
{
    unsigned set = setIndex(line_addr);
    int way = findWay(set, line_addr);
    LookupResult res;
    if (way < 0)
        return res;
    res.hit = true;
    res.readyAt =
        std::max(cycle,
                 cold[lineIndex(set, static_cast<unsigned>(way))]
                     .readyAt)
        + latency;
    repl->touch(set, static_cast<unsigned>(way));
    return res;
}

Eviction
Cache::fill(Addr line_addr, Cycle ready_at, PfClass pf_class, PC pf_pc,
            bool dirty)
{
    unsigned set = setIndex(line_addr);
    // One pass finds both the way holding the line, if any, and the
    // lowest invalid demand way a new line would take.
    int target = -1;
    int existing = scanSet<true>(set, line_addr, &target);
    if (existing >= 0) {
        // Refill of a present line: merge state. An in-flight line
        // refilled with an earlier ready time takes that earlier
        // time, otherwise late-prefetch hits would keep paying the
        // stale later timestamp.
        std::size_t idx =
            lineIndex(set, static_cast<unsigned>(existing));
        if (dirty)
            flags[idx] |= kFlagDirty;
        if (ready_at < cold[idx].readyAt)
            cold[idx].readyAt = ready_at;
        repl->touch(set, static_cast<unsigned>(existing));
        return Eviction{};
    }

    ++statsData.fills;

    // An invalid demand way, when there is one, takes the line.
    Eviction ev;
    if (target < 0) {
        // All demand ways hold valid lines: the candidate set is the
        // contiguous [reserved, waysTotal) suffix of wayIds, so no
        // per-miss candidate vector is ever built.
        prophet_assert(reserved < waysTotal);
        unsigned victim = repl->victim(set, wayIds.data() + reserved,
                                       waysTotal - reserved);
        std::size_t vidx = lineIndex(set, victim);
        std::uint8_t vf = flags[vidx];
        ev.valid = true;
        ev.lineAddr = tags[vidx];
        ev.dirty = (vf & kFlagDirty) != 0;
        ev.unusedPrefetch = (vf & kFlagPrefetched)
            && !(vf & kFlagDemandTouched);
        if (ev.dirty)
            ++statsData.writebacks;
        if (ev.unusedPrefetch)
            ++statsData.unusedPrefetchEvictions;
        target = static_cast<int>(victim);
    }

    std::size_t idx = lineIndex(set, static_cast<unsigned>(target));
    setTag(idx, line_addr);
    std::uint8_t f = 0;
    if (dirty)
        f |= kFlagDirty;
    if (pf_class != PfClass::None)
        f |= kFlagPrefetched;
    f |= static_cast<std::uint8_t>(static_cast<unsigned>(pf_class)
                                   << kPfClassShift);
    flags[idx] = f;
    cold[idx].prefetchPc = pf_pc;
    cold[idx].readyAt = ready_at;
    repl->insert(set, static_cast<unsigned>(target));
    return ev;
}

void
Cache::markDirty(Addr line_addr)
{
    unsigned set = setIndex(line_addr);
    int way = findWay(set, line_addr);
    if (way >= 0)
        flags[lineIndex(set, static_cast<unsigned>(way))] |= kFlagDirty;
}

Eviction
Cache::invalidate(Addr line_addr)
{
    unsigned set = setIndex(line_addr);
    int way = findWay(set, line_addr);
    Eviction ev;
    if (way < 0)
        return ev;
    std::size_t idx = lineIndex(set, static_cast<unsigned>(way));
    std::uint8_t f = flags[idx];
    ev.valid = true;
    ev.lineAddr = tags[idx];
    ev.dirty = (f & kFlagDirty) != 0;
    ev.unusedPrefetch = (f & kFlagPrefetched)
        && !(f & kFlagDemandTouched);
    setTag(idx, kInvalidTag);
    flags[idx] = 0;
    return ev;
}

void
Cache::setReservedWays(unsigned ways)
{
    prophet_assert(ways < waysTotal);
    if (ways > reserved) {
        // Metadata partition grows: drop demand lines in the newly
        // reserved ways.
        for (unsigned set = 0; set < sets; ++set) {
            for (unsigned w = reserved; w < ways; ++w) {
                std::size_t idx = lineIndex(set, w);
                setTag(idx, kInvalidTag);
                flags[idx] = 0;
            }
        }
    }
    reserved = ways;
}

std::uint64_t
Cache::effectiveBytes() const
{
    return static_cast<std::uint64_t>(sets) * (waysTotal - reserved)
        * kLineSize;
}

} // namespace prophet::mem
