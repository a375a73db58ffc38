#include "core/mvb.hh"

#include "common/intmath.hh"
#include "common/log.hh"

namespace prophet::core
{

MultiPathVictimBuffer::MultiPathVictimBuffer(unsigned total_entries,
                                             unsigned candidates)
    : numSets(total_entries / kWays), maxCandidates(candidates),
      slots(static_cast<std::size_t>(total_entries)),
      counters(slots.size(), 0)
{
    prophet_assert(candidates >= 1);
    prophet_assert(candidates <= kWays);
    prophet_assert(total_entries % kWays == 0);
    prophet_assert(isPowerOf2(numSets));
}

unsigned
MultiPathVictimBuffer::setIndex(Addr key) const
{
    std::uint64_t h = key;
    h ^= h >> 16;
    h *= 0x45d9f3b3335b369ULL;
    h ^= h >> 19;
    return static_cast<unsigned>(h & (numSets - 1));
}

void
MultiPathVictimBuffer::offer(const pf::MarkovTable::Entry &victim)
{
    if (!victim.valid)
        return;
    if (victim.priority == 0) {
        // Only targets with priority level > 0 (acc > EL_ACC) are
        // worth buffer space (Section 4.5, Insertion rule).
        ++statsData.rejectedLowPriority;
        return;
    }
    prophet_assert(victim.key != kInvalidAddr);

    const std::size_t base =
        static_cast<std::size_t>(setIndex(victim.key)) * kWays;
    Slot *s = slots.data() + base;
    std::uint8_t *c = counters.data() + base;

    // Already buffered? Refresh its counter instead of duplicating.
    unsigned key_slots = 0;
    for (unsigned w = 0; w < kWays; ++w) {
        if (s[w].key == victim.key) {
            if (s[w].target == victim.target) {
                if (c[w] < 3)
                    ++c[w];
                return;
            }
            ++key_slots;
        }
    }

    // Victim choice: invalid slot first; otherwise the slot with the
    // smallest counter (the MVB reuses Prophet's replacement idea
    // with per-target counters as priorities). When this key already
    // holds `maxCandidates` targets, replace among its own slots so
    // one key cannot monopolize a set.
    int target_way = -1;
    std::uint8_t best_counter = 255;
    for (unsigned w = 0; w < kWays; ++w) {
        const bool valid = s[w].key != kInvalidAddr;
        if (!valid && key_slots < maxCandidates) {
            target_way = static_cast<int>(w);
            break;
        }
        if (!valid)
            continue;
        bool same_key = s[w].key == victim.key;
        bool eligible = key_slots >= maxCandidates ? same_key : true;
        if (eligible && c[w] < best_counter) {
            best_counter = c[w];
            target_way = static_cast<int>(w);
        }
    }
    if (target_way < 0)
        return;

    s[target_way] = Slot{victim.key, victim.target};
    c[target_way] = 1;
    ++statsData.inserts;
}

void
MultiPathVictimBuffer::lookup(Addr key, Addr table_target,
                              std::vector<Addr> &out)
{
    ++statsData.lookups;
    const std::size_t base =
        static_cast<std::size_t>(setIndex(key)) * kWays;
    const Slot *s = slots.data() + base;
    unsigned found = 0;
    for (unsigned w = 0; w < kWays && found < maxCandidates; ++w) {
        // An invalid slot's kInvalidAddr key never equals a line
        // address.
        if (s[w].key != key)
            continue;
        std::uint8_t &c = counters[base + w];
        if (c < 3)
            ++c;
        if (s[w].target == table_target)
            continue; // the table already supplies this path
        out.push_back(s[w].target);
        ++statsData.extraTargets;
        ++found;
    }
    if (found > 0)
        ++statsData.hits;
}

std::uint64_t
MultiPathVictimBuffer::storageBits() const
{
    return static_cast<std::uint64_t>(slots.size()) * 43;
}

} // namespace prophet::core
