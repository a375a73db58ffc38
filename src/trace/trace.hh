/**
 * @file
 * In-memory access trace: the interface between workload generators
 * and the simulator. Traces also expose an instruction count so the
 * timing model can compute IPC.
 *
 * Storage is structure-of-arrays: the record loop is bandwidth-bound,
 * and the hot consumers (System::run, kernel identification, the
 * trace-analysis passes) each read only a subset of the record
 * fields. Three parallel arrays — pc, byte address, and a packed
 * instGap/flags word, 20 bytes per record — let each consumer stream
 * exactly the bytes it needs, and let trace (de)serialization move
 * whole arrays with single bulk I/O calls. Line addresses are never
 * stored: a consumer that needs one shifts it from the byte address
 * (lineAddr). `operator[]` materializes a TraceRecord by value so
 * record-at-a-time call sites keep working unchanged.
 */

#ifndef PROPHET_TRACE_TRACE_HH
#define PROPHET_TRACE_TRACE_HH

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <iterator>
#include <vector>

#include "common/no_init_allocator.hh"
#include "trace/record.hh"

namespace prophet::trace
{

/**
 * A whole-workload memory access trace: three SoA arrays at 20 bytes
 * per record (see the file comment). Appending maintains the total
 * retired-instruction count (memory instructions + instruction gaps).
 */
class Trace
{
  public:
    /**
     * Packed per-record metadata word: instGap in bits 0-15,
     * dependsOnPrev in bit 16, isWrite in bit 17. This is also the
     * on-disk encoding of the binary trace format's meta array
     * (every bit is defined, so bulk-written files are
     * deterministic).
     */
    static constexpr std::uint32_t kGapMask = 0xffffu;
    static constexpr std::uint32_t kDependsBit = 1u << 16;
    static constexpr std::uint32_t kWriteBit = 1u << 17;

    /**
     * Array type of the SoA columns. The no-init allocator matters
     * only to the bulk loader: `BulkVector<T> v(n)` sizes without
     * the value-init memset, so fread is the first touch of every
     * page. append() paths behave exactly like std::vector.
     */
    template <typename T>
    using BulkVector = std::vector<T, NoInitAllocator<T>>;

    /** Decode the instruction gap from a packed meta word. */
    static std::uint16_t
    gapOf(std::uint32_t meta)
    {
        return static_cast<std::uint16_t>(meta & kGapMask);
    }

    /** Decode dependsOnPrev from a packed meta word. */
    static bool
    dependsOf(std::uint32_t meta)
    {
        return (meta & kDependsBit) != 0;
    }

    /** Decode isWrite from a packed meta word. */
    static bool
    writeOf(std::uint32_t meta)
    {
        return (meta & kWriteBit) != 0;
    }

    /** Encode (gap, depends, write) into a packed meta word. */
    static std::uint32_t
    packMeta(std::uint16_t inst_gap, bool depends_on_prev,
             bool is_write)
    {
        return static_cast<std::uint32_t>(inst_gap)
            | (depends_on_prev ? kDependsBit : 0u)
            | (is_write ? kWriteBit : 0u);
    }

    Trace() = default;

    /** Reserve space for n records. */
    void
    reserve(std::size_t n)
    {
        pcs.reserve(n);
        addrs.reserve(n);
        metas.reserve(n);
    }

    /** Append one record (primary form: no TraceRecord materialized). */
    void
    append(PC pc, Addr addr, std::uint16_t inst_gap = 1,
           bool depends_on_prev = false, bool is_write = false)
    {
        totalInsts += inst_gap + 1;
        pcs.push_back(pc);
        addrs.push_back(addr);
        metas.push_back(packMeta(inst_gap, depends_on_prev, is_write));
    }

    /** Append one record. */
    void
    append(const TraceRecord &rec)
    {
        append(rec.pc, rec.addr, rec.instGap, rec.dependsOnPrev,
               rec.isWrite);
    }

    /**
     * Adopt bulk-loaded arrays (binary trace loads). The instruction
     * count is recomputed, so only the three stored arrays travel
     * through I/O. @p metas_in words must use the packMeta encoding;
     * undefined bits are masked off.
     */
    void
    adopt(BulkVector<PC> pcs_in, BulkVector<Addr> addrs_in,
          BulkVector<std::uint32_t> metas_in)
    {
        pcs = std::move(pcs_in);
        addrs = std::move(addrs_in);
        metas = std::move(metas_in);
        const std::size_t n = metas.size();
        // A single-purpose pass the compiler can vectorize: mask +
        // gap sum over the u32 meta words. The sum accumulates into a
        // 32-bit partial per chunk — 32768 gaps of <= 0xffff cannot
        // overflow — so the reduction stays in vector width instead
        // of widening every element to u64.
        constexpr std::uint32_t defined =
            kGapMask | kDependsBit | kWriteBit;
        constexpr std::size_t kSumChunk = 32768;
        std::uint64_t gaps = 0;
        for (std::size_t base = 0; base < n; base += kSumChunk) {
            const std::size_t end = std::min(n, base + kSumChunk);
            std::uint32_t part = 0;
            for (std::size_t i = base; i < end; ++i) {
                metas[i] &= defined;
                part += metas[i] & kGapMask;
            }
            gaps += part;
        }
        totalInsts = gaps + n;
    }

    /** Number of memory accesses. */
    std::size_t size() const { return pcs.size(); }

    /** True if the trace has no records. */
    bool empty() const { return pcs.empty(); }

    /** Materialize record i (by value; the storage is SoA). */
    TraceRecord
    operator[](std::size_t i) const
    {
        const std::uint32_t m = metas[i];
        return TraceRecord{pcs[i], addrs[i], gapOf(m), dependsOf(m),
                           writeOf(m)};
    }

    /** Total retired instructions represented by the trace. */
    std::uint64_t totalInstructions() const { return totalInsts; }

    // ---- SoA views (hot-loop consumers read these directly) ----

    /** PC of every record. */
    const PC *pcData() const { return pcs.data(); }

    /** Byte address of every record. */
    const Addr *addrData() const { return addrs.data(); }

    /** Packed instGap/flags word of every record (see packMeta). */
    const std::uint32_t *metaData() const { return metas.data(); }

    /**
     * Iteration support: a proxy iterator materializing TraceRecords
     * on demand, so range-for call sites survived the SoA change.
     */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = TraceRecord;
        using difference_type = std::ptrdiff_t;
        using pointer = const TraceRecord *;
        using reference = TraceRecord;

        const_iterator(const Trace *t, std::size_t i)
            : trace(t), index(i)
        {}

        TraceRecord operator*() const { return (*trace)[index]; }

        const_iterator &
        operator++()
        {
            ++index;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator prev = *this;
            ++index;
            return prev;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return index == o.index;
        }

        bool
        operator!=(const const_iterator &o) const
        {
            return index != o.index;
        }

      private:
        const Trace *trace;
        std::size_t index;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    BulkVector<PC> pcs;
    BulkVector<Addr> addrs;
    BulkVector<std::uint32_t> metas;  ///< packed instGap/flags
    std::uint64_t totalInsts = 0;
};

} // namespace prophet::trace

#endif // PROPHET_TRACE_TRACE_HH
