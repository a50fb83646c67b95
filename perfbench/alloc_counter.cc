#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

void
note(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(size, std::memory_order_relaxed);
    }
}

} // namespace

void
setAllocCounting(bool enabled)
{
    g_counting.store(enabled, std::memory_order_relaxed);
}

AllocCount
allocCount()
{
    return {g_allocs.load(std::memory_order_relaxed),
            g_bytes.load(std::memory_order_relaxed)};
}

} // namespace perfbench

// libstdc++ routes the array, nothrow and sized forms through these
// four, so replacing them counts every allocation.

void *
operator new(std::size_t size)
{
    perfbench::note(size);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    perfbench::note(size);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc needs a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
