/**
 * @file
 * IPCP-style L1 prefetcher (Pakalapati & Panda, ISCA'20), used in the
 * Figure 17 sensitivity study to emulate a richer commercial L1
 * prefetcher (Neoverse V2-class stream+stride+spatial mix).
 *
 * Instruction pointers are classified per access into one of three
 * classes, checked in priority order:
 *  - CS (constant stride): stable per-PC stride, deep prefetching.
 *  - CPLX (complex): per-PC delta-signature predictor covering
 *    repeating non-constant stride sequences.
 *  - GS (global stream): dense region streaming, next-line burst.
 */

#ifndef PROPHET_PREFETCH_IPCP_HH
#define PROPHET_PREFETCH_IPCP_HH

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace prophet::pf
{

/** IPCP-style classifying L1 prefetcher. */
class IpcpPrefetcher : public L1Prefetcher
{
  public:
    /**
     * @param cs_degree Prefetch depth for constant-stride PCs.
     * @param gs_degree Next-line burst length for global streams.
     */
    explicit IpcpPrefetcher(unsigned cs_degree = 6,
                            unsigned gs_degree = 4);

    void observe(PC pc, Addr line_addr, bool l1_hit,
                 std::vector<Addr> &out) override;

  private:
    struct IpEntry
    {
        PC pc = kInvalidPC;
        Addr lastLine = 0;
        std::int64_t stride = 0;
        std::uint8_t strideConf = 0;
        std::uint16_t signature = 0;
    };

    /** CPLX delta predictor entry. */
    struct CplxEntry
    {
        std::int64_t delta = 0;
        std::uint8_t conf = 0;
    };

    /** Region tracker for GS classification. */
    struct Region
    {
        Addr base = 0;
        std::uint32_t touched = 0; ///< bitmap of touched lines
        bool valid = false;
    };

    unsigned csDegree;
    unsigned gsDegree;
    std::vector<IpEntry> ipTable;
    std::vector<CplxEntry> cplxTable;
    std::vector<Region> regions;

    IpEntry &ipEntry(PC pc);
    CplxEntry &cplxEntry(std::uint16_t sig);
    static std::uint16_t updateSignature(std::uint16_t sig,
                                         std::int64_t delta);
    bool regionDense(Addr line_addr);
};

} // namespace prophet::pf

#endif // PROPHET_PREFETCH_IPCP_HH
