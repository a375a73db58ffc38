/**
 * @file
 * Dependency-free 64-bit checksums, two of them:
 *
 *  - FNV-1a 64, byte-serial and a few instructions per byte, for the
 *    short inputs: the spec hasher (content-addressed experiment
 *    identity, printed as `spec_hash`) and the resume journal's
 *    frames. Both values are persisted, so this hash never changes.
 *  - XXH64 (seed 0), four independent 8-byte lanes at memory speed,
 *    for the trace cache's per-array integrity checks (trace format
 *    v4), where the input is tens of megabytes. Every input bit
 *    passes through a rotate-multiply round before it reaches the
 *    sum. (A word-wide FNV-1a would not do: its xor-multiply passes
 *    a flip of bit 63 through unchanged, so two such flips in one
 *    lane cancel.)
 *
 * Both hash the serialized bytes themselves; XXH64 reads them as
 * little-endian words, so its sums are the published algorithm's on
 * every host.
 *
 * These are integrity checks against torn writes and bit rot, not
 * cryptographic MACs: a deliberate corruption could forge them, but
 * the threat model here is a crashed writer or a flaky disk.
 */

#ifndef PROPHET_COMMON_CHECKSUM_HH
#define PROPHET_COMMON_CHECKSUM_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace prophet
{

constexpr std::uint64_t kFnv1a64Offset = 1469598103934665603ull;
constexpr std::uint64_t kFnv1a64Prime = 1099511628211ull;

/** FNV-1a 64 over a byte range, continuing from @p seed. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t bytes,
        std::uint64_t seed = kFnv1a64Offset)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= kFnv1a64Prime;
    }
    return h;
}

namespace xxh64_detail
{

constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

inline std::uint64_t
rotl(std::uint64_t x, unsigned r)
{
    return (x << r) | (x >> (64 - r));
}

inline std::uint64_t
read64(const unsigned char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

inline std::uint32_t
read32(const unsigned char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap32(v);
#endif
    return v;
}

inline std::uint64_t
round(std::uint64_t acc, std::uint64_t input)
{
    acc += input * kPrime2;
    return rotl(acc, 31) * kPrime1;
}

inline std::uint64_t
mergeRound(std::uint64_t acc, std::uint64_t lane)
{
    acc ^= round(0, lane);
    return acc * kPrime1 + kPrime4;
}

} // namespace xxh64_detail

/**
 * XXH64 with seed 0 over a byte range: 32-byte stripes through four
 * lanes, then the tail in 8-, 4- and 1-byte steps, then the final
 * avalanche.
 */
inline std::uint64_t
xxh64(const void *data, std::size_t bytes)
{
    using namespace xxh64_detail;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + bytes;
    std::uint64_t h;
    if (bytes >= 32) {
        std::uint64_t v1 = kPrime1 + kPrime2;
        std::uint64_t v2 = kPrime2;
        std::uint64_t v3 = 0;
        std::uint64_t v4 = 0 - kPrime1;
        const unsigned char *const last_stripe = end - 32;
        do {
            v1 = round(v1, read64(p));
            v2 = round(v2, read64(p + 8));
            v3 = round(v3, read64(p + 16));
            v4 = round(v4, read64(p + 24));
            p += 32;
        } while (p <= last_stripe);
        h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
        h = mergeRound(h, v1);
        h = mergeRound(h, v2);
        h = mergeRound(h, v3);
        h = mergeRound(h, v4);
    } else {
        h = kPrime5;
    }
    h += static_cast<std::uint64_t>(bytes);

    for (; end - p >= 8; p += 8)
        h = rotl(h ^ round(0, read64(p)), 27) * kPrime1 + kPrime4;
    if (end - p >= 4) {
        h = rotl(h ^ (read32(p) * kPrime1), 23) * kPrime2 + kPrime3;
        p += 4;
    }
    for (; p < end; ++p)
        h = rotl(h ^ (*p * kPrime5), 11) * kPrime1;

    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

} // namespace prophet

#endif // PROPHET_COMMON_CHECKSUM_HH
