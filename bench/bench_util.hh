/**
 * @file
 * Shared plumbing for the bench binaries: the `--threads N` flag.
 */

#ifndef PROPHET_BENCH_BENCH_UTIL_HH
#define PROPHET_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace prophet::bench
{

/**
 * Parse the shared bench flag `--threads N` (also `--threads=N`).
 * Defaults to 1 (serial); 0 selects the hardware concurrency;
 * malformed or negative values fall back to the default. Any thread
 * count produces bit-identical tables — the sweep engine merges
 * results by job index.
 */
inline unsigned
parseThreads(int argc, char **argv, unsigned fallback = 1)
{
    auto parse = [fallback](const char *s) -> unsigned {
        char *end = nullptr;
        long v = std::strtol(s, &end, 10);
        if (end == s || *end != '\0' || v < 0) {
            std::fprintf(stderr,
                         "--threads: invalid value '%s', using %u\n",
                         s, fallback);
            return fallback;
        }
        return static_cast<unsigned>(v);
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0) {
            if (i + 1 < argc)
                return parse(argv[i + 1]);
            std::fprintf(stderr,
                         "--threads: missing value, using %u\n",
                         fallback);
            return fallback;
        }
        if (std::strncmp(argv[i], "--threads=", 10) == 0)
            return parse(argv[i] + 10);
    }
    return fallback;
}

} // namespace prophet::bench

#endif // PROPHET_BENCH_BENCH_UTIL_HH
