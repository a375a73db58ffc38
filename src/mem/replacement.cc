#include "mem/replacement.hh"

#include <limits>

#include "common/log.hh"

namespace prophet::mem
{

// ---------------------------------------------------------------- LRU

void
LruPolicy::reset(unsigned num_sets, unsigned assoc)
{
    numWays = assoc;
    clock = 0;
    stamps.assign(static_cast<std::size_t>(num_sets) * assoc, 0);
}

void
LruPolicy::touch(unsigned set, unsigned way)
{
    stamps[static_cast<std::size_t>(set) * numWays + way] = ++clock;
}

void
LruPolicy::insert(unsigned set, unsigned way)
{
    touch(set, way);
}

unsigned
LruPolicy::victim(unsigned set, const unsigned *cands, unsigned n)
{
    prophet_assert(n > 0);
    unsigned best = cands[0];
    std::uint64_t best_stamp = std::numeric_limits<std::uint64_t>::max();
    for (unsigned i = 0; i < n; ++i) {
        unsigned way = cands[i];
        std::uint64_t s =
            stamps[static_cast<std::size_t>(set) * numWays + way];
        if (s < best_stamp) {
            best_stamp = s;
            best = way;
        }
    }
    return best;
}

// -------------------------------------------------------------- SRRIP

SrripPolicy::SrripPolicy(unsigned rrpv_bits)
    : maxRrpv(static_cast<std::uint8_t>((1u << rrpv_bits) - 1))
{
    prophet_assert(rrpv_bits >= 1 && rrpv_bits <= 8);
}

void
SrripPolicy::reset(unsigned num_sets, unsigned assoc)
{
    numWays = assoc;
    rrpvs.assign(static_cast<std::size_t>(num_sets) * assoc, maxRrpv);
}

void
SrripPolicy::touch(unsigned set, unsigned way)
{
    rrpvs[static_cast<std::size_t>(set) * numWays + way] = 0;
}

void
SrripPolicy::insert(unsigned set, unsigned way)
{
    rrpvs[static_cast<std::size_t>(set) * numWays + way] =
        static_cast<std::uint8_t>(maxRrpv - 1);
}

unsigned
SrripPolicy::victim(unsigned set, const unsigned *cands, unsigned n)
{
    prophet_assert(n > 0);
    std::size_t base = static_cast<std::size_t>(set) * numWays;
    for (;;) {
        for (unsigned i = 0; i < n; ++i)
            if (rrpvs[base + cands[i]] >= maxRrpv)
                return cands[i];
        // Age all candidates and retry; bounded by maxRrpv rounds.
        for (unsigned i = 0; i < n; ++i)
            if (rrpvs[base + cands[i]] < maxRrpv)
                ++rrpvs[base + cands[i]];
    }
}

std::uint8_t
SrripPolicy::rrpv(unsigned set, unsigned way) const
{
    return rrpvs[static_cast<std::size_t>(set) * numWays + way];
}

// -------------------------------------------------------------- BRRIP

BrripPolicy::BrripPolicy(double long_insert_prob)
    : longProb(long_insert_prob), rng(0xb1e55edULL)
{}

void
BrripPolicy::reset(unsigned num_sets, unsigned assoc)
{
    numWays = assoc;
    rrpvs.assign(static_cast<std::size_t>(num_sets) * assoc, maxRrpv);
}

void
BrripPolicy::touch(unsigned set, unsigned way)
{
    rrpvs[static_cast<std::size_t>(set) * numWays + way] = 0;
}

void
BrripPolicy::insert(unsigned set, unsigned way)
{
    bool long_rrpv = !rng.chance(longProb);
    rrpvs[static_cast<std::size_t>(set) * numWays + way] =
        static_cast<std::uint8_t>(long_rrpv ? maxRrpv : maxRrpv - 1);
}

unsigned
BrripPolicy::victim(unsigned set, const unsigned *cands, unsigned n)
{
    prophet_assert(n > 0);
    std::size_t base = static_cast<std::size_t>(set) * numWays;
    for (;;) {
        for (unsigned i = 0; i < n; ++i)
            if (rrpvs[base + cands[i]] >= maxRrpv)
                return cands[i];
        for (unsigned i = 0; i < n; ++i)
            if (rrpvs[base + cands[i]] < maxRrpv)
                ++rrpvs[base + cands[i]];
    }
}

// ------------------------------------------------------------- Random

RandomPolicy::RandomPolicy(std::uint64_t seed)
    : rng(seed)
{}

void
RandomPolicy::reset(unsigned, unsigned)
{}

void
RandomPolicy::touch(unsigned, unsigned)
{}

void
RandomPolicy::insert(unsigned, unsigned)
{}

unsigned
RandomPolicy::victim(unsigned, const unsigned *cands, unsigned n)
{
    prophet_assert(n > 0);
    return cands[rng.below(n)];
}

// ------------------------------------------------------------ factory

std::unique_ptr<ReplacementPolicy>
makePolicy(const std::string &name)
{
    if (name == "lru")
        return std::make_unique<LruPolicy>();
    if (name == "srrip")
        return std::make_unique<SrripPolicy>();
    if (name == "brrip")
        return std::make_unique<BrripPolicy>();
    if (name == "random")
        return std::make_unique<RandomPolicy>();
    prophet_fatal("unknown replacement policy name");
}

} // namespace prophet::mem
