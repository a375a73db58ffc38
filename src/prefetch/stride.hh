/**
 * @file
 * Classic per-PC stride prefetcher, the degree-8 L1D prefetcher of
 * Table 1. A PC-indexed table tracks the last address and a stride
 * with a 2-bit confidence counter; confident entries prefetch
 * `degree` strides ahead.
 */

#ifndef PROPHET_PREFETCH_STRIDE_HH
#define PROPHET_PREFETCH_STRIDE_HH

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace prophet::pf
{

/** Per-PC stride prefetcher. */
class StridePrefetcher : public L1Prefetcher
{
  public:
    /**
     * @param degree Prefetch depth in strides (Table 1: 8).
     * @param table_entries PC table size (direct-mapped, power of 2).
     */
    explicit StridePrefetcher(unsigned degree = 8,
                              unsigned table_entries = 256);

    void observe(PC pc, Addr line_addr, bool l1_hit,
                 std::vector<Addr> &out) override;

  private:
    struct Entry
    {
        PC pc = kInvalidPC;
        Addr lastLine = 0;
        std::int64_t stride = 0;
        std::uint8_t confidence = 0;
    };

    unsigned degree;
    std::vector<Entry> table;

    Entry &entryFor(PC pc);
};

} // namespace prophet::pf

#endif // PROPHET_PREFETCH_STRIDE_HH
