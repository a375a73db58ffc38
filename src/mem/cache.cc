#include "mem/cache.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>

#include "common/intmath.hh"
#include "common/log.hh"

namespace prophet::mem
{

namespace
{

/** A one in every nibble: times a way id, that id in every nibble. */
constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ull;

} // anonymous namespace

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
      plru(config.replacement == "plru")
{
    prophet_assert(sets > 0 && isPowerOf2(sets));
    if (!plru && config.replacement != "lru")
        prophet_fatal("unknown cache replacement policy name");
    if (waysTotal == 0 || waysTotal > 16)
        prophet_fatal("cache associativity must be 1 to 16 ways");
    if (plru && !isPowerOf2(waysTotal))
        prophet_fatal("tree-PLRU needs a power-of-two associativity");

    std::uint64_t reset = 0;
    if (plru) {
        // Way w is leaf assoc - 1 + w of the heap. Walking up from
        // it, each parent on the path is noted, and a touch points
        // it at the other child: right (1) when the path comes from
        // the left child.
        for (unsigned w = 0; w < waysTotal; ++w) {
            for (unsigned node = waysTotal - 1 + w; node > 0;) {
                const unsigned parent = (node - 1) / 2;
                const auto bit = static_cast<std::uint16_t>(1u << parent);
                pathMask[w] |= bit;
                if (node == 2 * parent + 1)
                    pathBits[w] |= bit;
                node = parent;
            }
        }
    } else {
        // Way assoc - 1 in nibble 0 (most recent) down to way 0 in
        // nibble assoc - 1 (least recent).
        for (unsigned w = 0; w < waysTotal; ++w)
            reset = reset << 4 | w;
    }
    replWords.assign(sets, reset);
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

inline void
Cache::touch(unsigned set, unsigned way)
{
    std::uint64_t &w = replWords[set];
    if (plru) {
        w = (w & ~std::uint64_t{pathMask[way]}) | pathBits[way];
        return;
    }
    // The way's nibble is the lowest zero nibble of the order XOR the
    // way in every nibble. The zero-nibble test flags the lowest one
    // exactly (a borrow can only flag nibbles above it). The more
    // recent nibbles below it move up one place, and the way goes to
    // nibble 0.
    const std::uint64_t x = w ^ (way * kNibbleOnes);
    const std::uint64_t zero = (x - kNibbleOnes) & ~x & (kNibbleOnes << 3);
    const unsigned shift =
        static_cast<unsigned>(__builtin_ctzll(zero)) & ~3u;
    const std::uint64_t newer = (std::uint64_t{1} << shift) - 1;
    w = (w & ~((newer << 4) | 0xfu)) | ((w & newer) << 4) | way;
}

inline unsigned
Cache::victim(unsigned set) const
{
    const std::uint64_t w = replWords[set];
    if (plru) {
        unsigned node = 0;
        while (node < waysTotal - 1)
            node = 2 * node + 1 + static_cast<unsigned>((w >> node) & 1);
        return node - (waysTotal - 1);
    }
    // The least recent demand way. Every way id is in the order and
    // reserved < assoc, so the walk stops at a demand way.
    unsigned i = waysTotal - 1;
    while ((static_cast<unsigned>(w >> (4 * i)) & 0xfu) < reserved)
        --i;
    return static_cast<unsigned>(w >> (4 * i)) & 0xfu;
}

LookupResult
Cache::lookupDemand(Addr line_addr, Cycle cycle, bool is_write)
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
    if (is_write)
        flags[idx] |= kFlagDirty;
    ++statsData.demandHits;
    touch(set, static_cast<unsigned>(way));
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
    touch(set, static_cast<unsigned>(way));
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
        touch(set, static_cast<unsigned>(existing));
        return Eviction{};
    }

    ++statsData.fills;

    // An invalid demand way, when there is one, takes the line.
    Eviction ev;
    if (target < 0) {
        // All demand ways hold lines this fill path inserted, each at
        // a distinct recency, so the victim is never a tie.
        const unsigned vway = victim(set);
        std::size_t vidx = lineIndex(set, vway);
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
        target = static_cast<int>(vway);
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
    touch(set, static_cast<unsigned>(target));
    return ev;
}

bool
Cache::markDirty(Addr line_addr)
{
    unsigned set = setIndex(line_addr);
    int way = findWay(set, line_addr);
    if (way < 0)
        return false;
    flags[lineIndex(set, static_cast<unsigned>(way))] |= kFlagDirty;
    return true;
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
    prophet_assert(!plru);
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
