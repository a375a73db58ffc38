/**
 * @file
 * Unit tests for common/flat_map.hh: lookup/insert semantics, growth
 * and rehashing, erase-and-reinsert, deterministic insertion-order
 * iteration, equality, and the zero-allocations-after-reserve()
 * guarantee the simulator's record loop depends on (proved with a
 * counting allocator, so only the map's own allocations are counted).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.hh"

namespace prophet
{
namespace
{

TEST(FlatMap, InsertFindBasics)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), m.end());
    EXPECT_EQ(m.count(7), 0u);

    m[7] = 42;
    EXPECT_EQ(m.size(), 1u);
    ASSERT_NE(m.find(7), m.end());
    EXPECT_EQ(m.find(7)->second, 42);
    EXPECT_EQ(m.at(7), 42);
    EXPECT_TRUE(m.contains(7));

    // operator[] on an existing key returns the same slot.
    m[7] += 1;
    EXPECT_EQ(m.at(7), 43);

    // emplace on an existing key does not overwrite.
    auto [it, inserted] = m.emplace(7, 99);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(it->second, 43);
}

TEST(FlatMap, GrowthRehashesAndKeepsEveryEntry)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    // Push through many doublings from the default capacity.
    constexpr std::uint64_t n = 20000;
    for (std::uint64_t k = 0; k < n; ++k)
        m[k * 0x9e3779b9ull] = k;
    EXPECT_EQ(m.size(), n);
    for (std::uint64_t k = 0; k < n; ++k) {
        ASSERT_TRUE(m.contains(k * 0x9e3779b9ull)) << k;
        EXPECT_EQ(m.at(k * 0x9e3779b9ull), k);
    }
    // Absent keys stay absent after all that probing.
    EXPECT_FALSE(m.contains(123457));
}

TEST(FlatMap, DeterministicInsertionOrderIteration)
{
    FlatMap<std::uint64_t, int> m;
    const std::uint64_t keys[] = {900, 3, 512, 77, 1u << 30, 42};
    int v = 0;
    for (std::uint64_t k : keys)
        m[k] = v++;

    // Iteration yields exactly the insertion sequence — not hash
    // order — so every consumer is reproducible across platforms.
    std::vector<std::uint64_t> seen;
    for (const auto &[k, val] : m)
        seen.push_back(k);
    EXPECT_EQ(seen,
              (std::vector<std::uint64_t>{900, 3, 512, 77, 1u << 30,
                                          42}));

    // Growth must preserve the order too.
    for (std::uint64_t k = 1000000; k < 1002000; ++k)
        m[k] = 0;
    EXPECT_EQ(m.begin()->first, 900u);
    EXPECT_EQ((m.begin() + 5)->first, 42u);
}

TEST(FlatMap, EraseAndReinsert)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m[k] = static_cast<int>(k);

    EXPECT_EQ(m.erase(50), 1u);
    EXPECT_EQ(m.erase(50), 0u); // already gone
    EXPECT_EQ(m.size(), 99u);
    EXPECT_FALSE(m.contains(50));
    // Neighbours on the probe chain must remain reachable after the
    // index rebuild.
    for (std::uint64_t k = 0; k < 100; ++k) {
        if (k != 50) {
            EXPECT_TRUE(m.contains(k)) << k;
        }
    }

    // Erase preserves the order of the survivors; a reinserted key
    // goes to the back.
    m[50] = -1;
    EXPECT_EQ(m.size(), 100u);
    EXPECT_EQ(m.at(50), -1);
    EXPECT_EQ((m.end() - 1)->first, 50u);
    EXPECT_EQ(m.begin()->first, 0u);
    EXPECT_EQ((m.begin() + 50)->first, 51u); // shifted down by one
}

TEST(FlatMap, ClearKeepsNothingButAcceptsReinsertion)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 64; ++k)
        m[k] = 1;
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.contains(3));
    m[3] = 7;
    EXPECT_EQ(m.at(3), 7);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EqualityIsOrderIndependent)
{
    FlatMap<std::uint64_t, int> a, b;
    a[1] = 10;
    a[2] = 20;
    b[2] = 20;
    b[1] = 10;
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a != b);
    b[3] = 30;
    EXPECT_TRUE(a != b);
    a[3] = 31;
    EXPECT_TRUE(a != b); // same keys, one differing value
}

/**
 * Allocator that counts allocate() calls, so the no-allocation
 * guarantee is proved against the map's own behaviour regardless of
 * what the test harness allocates around it.
 */
template <typename T>
struct CountingAllocator
{
    using value_type = T;

    std::uint64_t *counter;

    explicit CountingAllocator(std::uint64_t *c) : counter(c) {}
    template <typename U>
    CountingAllocator(const CountingAllocator<U> &o)
        : counter(o.counter)
    {}

    T *
    allocate(std::size_t n)
    {
        ++*counter;
        return std::allocator<T>().allocate(n);
    }

    void
    deallocate(T *p, std::size_t n)
    {
        std::allocator<T>().deallocate(p, n);
    }

    template <typename U>
    bool operator==(const CountingAllocator<U> &o) const
    {
        return counter == o.counter;
    }
    template <typename U>
    bool operator!=(const CountingAllocator<U> &o) const
    {
        return counter != o.counter;
    }
};

TEST(FlatMap, NoAllocationsAfterReserve)
{
    std::uint64_t allocs = 0;
    using Alloc = CountingAllocator<std::pair<std::uint64_t, int>>;
    FlatMap<std::uint64_t, int, Alloc> m{Alloc(&allocs)};

    constexpr std::size_t n = 5000;
    m.reserve(n);
    std::uint64_t after_reserve = allocs;
    EXPECT_GT(after_reserve, 0u);

    for (std::uint64_t k = 0; k < n; ++k)
        m[k * 7919] = static_cast<int>(k);
    EXPECT_EQ(m.size(), n);
    EXPECT_EQ(allocs, after_reserve)
        << "insertions within reserve() allocated";

    // Lookups, overwrites, and a capacity-keeping clear/refill cycle
    // (the warmup-boundary pattern in System::run) stay free too.
    for (std::uint64_t k = 0; k < n; ++k)
        m[k * 7919] += 1;
    m.clear();
    for (std::uint64_t k = 0; k < n; ++k)
        m[k * 7919] = 0;
    EXPECT_EQ(allocs, after_reserve)
        << "clear()+reinsert or overwrite allocated";
}

} // anonymous namespace
} // namespace prophet
