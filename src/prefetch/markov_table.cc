#include "prefetch/markov_table.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>

#include "common/intmath.hh"
#include "common/log.hh"
#include "mem/hawkeye.hh"

namespace prophet::pf
{

MarkovTable::MarkovTable(unsigned num_sets, unsigned max_ways,
                         std::unique_ptr<mem::ReplacementPolicy> policy)
    : numSets(num_sets), maxWays(max_ways), curWays(max_ways),
      fps(static_cast<std::size_t>(num_sets) * max_ways * kEntriesPerLine
              + kFpPad,
          fingerprint(kInvalidAddr)),
      keys(fps.size() - kFpPad, kInvalidAddr),
      targets(keys.size(), kInvalidAddr),
      priorities(keys.size(), 0),
      setValid(num_sets, 0),
      candScratch(static_cast<std::size_t>(max_ways) * kEntriesPerLine),
      repl(std::move(policy)),
      curA(max_ways * kEntriesPerLine)
{
    prophet_assert(isPowerOf2(num_sets));
    prophet_assert(max_ways >= 1);
    prophet_assert(repl != nullptr);
    hawkeye = dynamic_cast<mem::HawkeyePolicy *>(repl.get());
    repl->reset(numSets, maxAssoc());
}

int
MarkovTable::findWay(unsigned set, Addr key) const
{
    // Scan fingerprints; verify a hit against the full key (keys are
    // unique within a set, so the first verified match is the only
    // one).
    //
    // The scan is bounded by the set's valid prefix: inserts always
    // fill the lowest invalid slot, replacements refill their victim
    // slot in place, and resizes drop only the tail beyond the new
    // capacity, so valid entries occupy exactly ways
    // [0, setValid[set]). Slots past the prefix hold kInvalidAddr
    // keys and can never verify, so skipping them loses no match —
    // and a partially trained 96-way set scans only what it holds.
    const std::uint16_t fp = fingerprint(key);
    const std::size_t base = slotIndex(set, 0);
    const std::uint16_t *f = fps.data() + base;
    const Addr *k = keys.data() + base;
    const unsigned limit = setValid[set];
#if defined(__SSE2__)
    // Eight fingerprints per compare from slot 0. Candidates
    // resolve in ascending slot order, so the result is the same
    // first match the scalar loop returns. The last load may read
    // up to 7 slots past `limit` (the next set's, or the padding
    // after the last set); the bound check drops them before their
    // keys are read.
    const __m128i vfp = _mm_set1_epi16(static_cast<short>(fp));
    for (unsigned w = 0; w < limit; w += 8) {
        const __m128i hit = _mm_cmpeq_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(f + w)),
            vfp);
        // movemask yields two bits per 16-bit lane; keep one.
        unsigned m =
            static_cast<unsigned>(_mm_movemask_epi8(hit)) & 0x5555u;
        while (m) {
            const unsigned way =
                w + (static_cast<unsigned>(__builtin_ctz(m)) >> 1);
            if (way >= limit)
                return -1;
            if (k[way] == key)
                return static_cast<int>(way);
            m &= m - 1;
        }
    }
#else
    for (unsigned w = 0; w < limit; ++w) {
        if (f[w] == fp && k[w] == key)
            return static_cast<int>(w);
    }
#endif
    return -1;
}

void
MarkovTable::hawkeyeHints(Addr key)
{
    // Hawkeye needs the access signature/address to run its OPTgen
    // sampler; for metadata, the key address plays both roles.
    if (hawkeye) {
        hawkeye->setSignature(key >> 4);
        hawkeye->setAddress(key);
    }
}

std::uint64_t
MarkovTable::capacityEntries() const
{
    return static_cast<std::uint64_t>(numSets) * curAssoc();
}

std::optional<Addr>
MarkovTable::lookup(Addr key)
{
    if (curWays == 0)
        return std::nullopt;
    ++statsData.lookups;
    unsigned set = setIndex(key);
    int way = findWay(set, key);
    if (way < 0)
        return std::nullopt;
    ++statsData.hits;
    hawkeyeHints(key);
    repl->touch(set, static_cast<unsigned>(way));
    return targets[slotIndex(set, static_cast<unsigned>(way))];
}

std::optional<Addr>
MarkovTable::peek(Addr key) const
{
    if (curWays == 0)
        return std::nullopt;
    unsigned set = setIndex(key);
    int way = findWay(set, key);
    if (way < 0)
        return std::nullopt;
    return targets[slotIndex(set, static_cast<unsigned>(way))];
}

void
MarkovTable::insert(Addr key, Addr target, std::uint8_t priority)
{
    if (curWays == 0)
        return;
    unsigned set = setIndex(key);
    int existing = findWay(set, key);
    if (existing >= 0) {
        std::size_t idx =
            slotIndex(set, static_cast<unsigned>(existing));
        if (targets[idx] != target) {
            // Target overwrite: the old target is displaced; the
            // Multi-path Victim Buffer captures it.
            ++statsData.updates;
            if (evictionCb)
                evictionCb(
                    Entry{keys[idx], targets[idx], priorities[idx],
                          true});
            targets[idx] = target;
        }
        priorities[idx] = priority;
        hawkeyeHints(key);
        repl->touch(set, static_cast<unsigned>(existing));
        return;
    }

    // Allocate: valid slots are a contiguous prefix (see findWay),
    // so the first invalid slot is setValid[set] itself — no scan.
    int slot = -1;
    if (setValid[set] < curA) {
        slot = static_cast<int>(setValid[set]);
        prophet_assert(
            keys[slotIndex(set, static_cast<unsigned>(slot))]
            == kInvalidAddr);
    }

    if (slot < 0) {
        unsigned n = 0;
        if (priorityAware) {
            // Prophet replacement: restrict candidates to the lowest
            // priority level present; the runtime policy then picks
            // the final victim among them (Figure 4).
            const std::uint8_t *p =
                priorities.data() + slotIndex(set, 0);
            std::uint8_t min_prio = 255;
            for (unsigned w = 0; w < curA; ++w)
                min_prio = std::min(min_prio, p[w]);
            for (unsigned w = 0; w < curA; ++w)
                if (p[w] == min_prio)
                    candScratch[n++] = w;
        } else {
            for (unsigned w = 0; w < curA; ++w)
                candScratch[n++] = w;
        }
        unsigned victim = repl->victim(set, candScratch.data(), n);
        std::size_t vidx = slotIndex(set, victim);
        ++statsData.replacements;
        if (evictionCb)
            evictionCb(Entry{keys[vidx], targets[vidx],
                             priorities[vidx], true});
        keys[vidx] = kInvalidAddr;
        fps[vidx] = fingerprint(kInvalidAddr);
        --validCount;
        --setValid[set];
        slot = static_cast<int>(victim);
    }

    std::size_t idx = slotIndex(set, static_cast<unsigned>(slot));
    keys[idx] = key;
    fps[idx] = fingerprint(key);
    targets[idx] = target;
    priorities[idx] = priority;
    ++validCount;
    ++setValid[set];
    ++statsData.inserts;
    hawkeyeHints(key);
    repl->insert(set, static_cast<unsigned>(slot));
}

void
MarkovTable::setAllocatedWays(unsigned ways)
{
    prophet_assert(ways <= maxWays);
    if (ways < curWays) {
        unsigned new_assoc = ways * kEntriesPerLine;
        for (unsigned set = 0; set < numSets; ++set) {
            for (unsigned w = new_assoc; w < curAssoc(); ++w) {
                std::size_t idx = slotIndex(set, w);
                if (keys[idx] != kInvalidAddr) {
                    keys[idx] = kInvalidAddr;
                    fps[idx] = fingerprint(kInvalidAddr);
                    --validCount;
                    --setValid[set];
                    ++statsData.resizeDrops;
                }
            }
        }
    }
    curWays = ways;
    curA = ways * kEntriesPerLine;
}

void
MarkovTable::clear()
{
    std::fill(keys.begin(), keys.end(), kInvalidAddr);
    std::fill(fps.begin(), fps.end(), fingerprint(kInvalidAddr));
    std::fill(setValid.begin(), setValid.end(), 0);
    validCount = 0;
    repl->reset(numSets, maxAssoc());
}

std::optional<std::uint8_t>
MarkovTable::priorityOf(Addr key) const
{
    unsigned set = setIndex(key);
    int way = findWay(set, key);
    if (way < 0)
        return std::nullopt;
    return priorities[slotIndex(set, static_cast<unsigned>(way))];
}

} // namespace prophet::pf
