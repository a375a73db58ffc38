/**
 * @file
 * std::allocator variant whose value-construction is default-init:
 * `std::vector<T, NoInitAllocator<T>> v(n)` for trivial T allocates
 * without writing the elements. Bulk deserialization (the trace
 * cache's loader) sizes a vector and then freads straight into
 * it; with the standard allocator that touches every page twice —
 * once for the value-init memset, once for the read.
 */

#ifndef PROPHET_COMMON_NO_INIT_ALLOCATOR_HH
#define PROPHET_COMMON_NO_INIT_ALLOCATOR_HH

#include <memory>
#include <type_traits>
#include <utility>

namespace prophet
{

template <typename T>
class NoInitAllocator : public std::allocator<T>
{
  public:
    template <typename U>
    struct rebind
    {
        using other = NoInitAllocator<U>;
    };

    NoInitAllocator() = default;

    template <typename U>
    NoInitAllocator(const NoInitAllocator<U> &) noexcept
    {}

    /** Value-construction with no arguments becomes default-init. */
    template <typename U>
    void
    construct(U *p) noexcept(
        std::is_nothrow_default_constructible<U>::value)
    {
        ::new (static_cast<void *>(p)) U;
    }

    /** Every other construction is untouched. */
    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

} // namespace prophet

#endif // PROPHET_COMMON_NO_INIT_ALLOCATOR_HH
