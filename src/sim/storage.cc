#include "sim/storage.hh"

namespace prophet::sim
{

std::vector<StorageItem>
prophetStorage(std::uint64_t max_table_entries,
               unsigned replacement_bits, unsigned hint_entries,
               std::uint64_t victim_entries)
{
    std::vector<StorageItem> items;
    // Prophet replacement state: priority bits per metadata entry
    // (48 KB at 196,608 entries x 2 bits).
    items.push_back({"Prophet replacement state",
                     max_table_entries * replacement_bits});
    // Hint buffer: 16-bit PC tag + 3-bit hint per entry (0.19 KB for
    // 128 entries; the paper quotes the same footprint).
    items.push_back({"Hint buffer",
                     static_cast<std::uint64_t>(hint_entries)
                         * (16 + 3)});
    // Multi-path Victim Buffer: 43 bits per entry — 31-bit target,
    // 10-bit tag, 2-bit counter (344 KB at 65,536 entries).
    items.push_back({"Multi-path Victim Buffer", victim_entries * 43});
    return items;
}

std::vector<StorageItem>
triageStorage()
{
    std::vector<StorageItem> items;
    // Hawkeye replacement for the metadata table: ~13 KB (Section
    // 2.1): sampler tags + occupancy vectors + predictor counters.
    items.push_back({"Hawkeye metadata replacement",
                     std::uint64_t{13} * 1024 * 8});
    // Bloom-filter resizing: tracking ~200K entries costs >200 KB
    // (Section 2.1.3).
    items.push_back({"Bloom filter (resizing)",
                     std::uint64_t{200} * 1024 * 8});
    return items;
}

std::vector<StorageItem>
triangelStorage()
{
    std::vector<StorageItem> items;
    // SRRIP state: 2 bits per metadata entry.
    items.push_back({"SRRIP metadata replacement",
                     std::uint64_t{196608} * 2});
    // PatternConf/ReuseConf: 4+4 bits across a 1K-entry PC table.
    items.push_back({"PatternConf/ReuseConf",
                     std::uint64_t{1024} * 8});
    // Set Dueller: ~2 KB (Section 2.1.3).
    items.push_back({"Set Dueller", std::uint64_t{2} * 1024 * 8});
    return items;
}

std::uint64_t
totalBits(const std::vector<StorageItem> &items)
{
    std::uint64_t sum = 0;
    for (const auto &it : items)
        sum += it.bits;
    return sum;
}

} // namespace prophet::sim
