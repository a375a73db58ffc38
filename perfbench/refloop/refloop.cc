// Host-speed reference for perfbench.
//
//     refloop ACCESSES
//
// Runs a fixed set-associative cache model, the same kind of work as
// the simulator's inner loop, and prints "<seconds> <hits>". The
// harness runs it next to every timed operation: on a shared host the
// speed of a vCPU changes from second to second, and the ratio of an
// operation's wall time to the adjacent reference time cancels most of
// that change. This file is part of the benchmark, not the program, so
// a change to the simulator never changes the reference.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

constexpr std::uint64_t kWays = 8;
constexpr std::uint64_t kSets = (2u << 20) / (kWays * sizeof(std::uint64_t));
constexpr std::uint64_t kAddressMask = (1ull << 30) - 1;

std::uint64_t mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

// 2 MiB of tags with per-way LRU ages; seven of eight accesses walk
// forward one line, the eighth jumps to a hashed address.
std::uint64_t run(long accesses)
{
    std::vector<std::uint64_t> tags(kSets * kWays, ~0ull);
    std::vector<std::uint8_t> age(kSets * kWays, 0);
    std::uint64_t addr = 1, hits = 0;
    for (long i = 0; i < accesses; ++i) {
        addr = (i & 7) ? addr + 64 : mix(addr + i) & kAddressMask;
        const std::uint64_t line = addr >> 6;
        const std::uint64_t base = (line % kSets) * kWays;
        const std::uint64_t tag = line / kSets;
        std::uint64_t way = kWays;
        for (std::uint64_t w = 0; w < kWays; ++w) {
            if (tags[base + w] == tag) {
                way = w;
                break;
            }
        }
        if (way != kWays) {
            ++hits;
        } else {
            way = 0;
            for (std::uint64_t w = 1; w < kWays; ++w)
                if (age[base + w] > age[base + way])
                    way = w;
            tags[base + way] = tag;
        }
        for (std::uint64_t w = 0; w < kWays; ++w)
            if (age[base + w] < 255)
                ++age[base + w];
        age[base + way] = 0;
    }
    return hits;
}

} // namespace

int main(int argc, char **argv)
{
    const long accesses = argc == 2 ? std::atol(argv[1]) : 0;
    if (accesses <= 0) {
        std::fprintf(stderr, "usage: refloop ACCESSES\n");
        return 2;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t hits = run(accesses);
    const std::chrono::duration<double> s =
        std::chrono::steady_clock::now() - t0;
    std::printf("%.9f %llu\n", s.count(), static_cast<unsigned long long>(hits));
    return 0;
}
