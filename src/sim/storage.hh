/**
 * @file
 * Storage-overhead accounting (Section 5.10 and the comparisons of
 * Section 2.1): the hardware state each scheme adds beyond the
 * shared metadata table.
 */

#ifndef PROPHET_SIM_STORAGE_HH
#define PROPHET_SIM_STORAGE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace prophet::sim
{

/** One line of the storage report. */
struct StorageItem
{
    std::string component;
    std::uint64_t bits = 0;

    double kib() const { return static_cast<double>(bits) / 8192.0; }
};

/** Storage breakdown of Prophet (Section 5.10). */
std::vector<StorageItem> prophetStorage(
    std::uint64_t max_table_entries = 196608,
    unsigned replacement_bits = 2, unsigned hint_entries = 128,
    std::uint64_t victim_entries = 65536);

/** Storage breakdown of Triage's management structures. */
std::vector<StorageItem> triageStorage();

/** Storage breakdown of Triangel's management structures. */
std::vector<StorageItem> triangelStorage();

/** Sum of a breakdown in bits. */
std::uint64_t totalBits(const std::vector<StorageItem> &items);

} // namespace prophet::sim

#endif // PROPHET_SIM_STORAGE_HH
