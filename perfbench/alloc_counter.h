/**
 * @file
 * Process-wide heap counter: this binary replaces the global
 * operator new / delete (alloc_counter.cc) so a pass can count every
 * allocation the server makes on its behalf, on any thread.
 */

#ifndef SIRIUS_PERFBENCH_ALLOC_COUNTER_H
#define SIRIUS_PERFBENCH_ALLOC_COUNTER_H

#include <cstdint>

namespace perfbench {

/** Allocations and requested bytes counted so far. */
struct AllocCount
{
    uint64_t allocs = 0;
    uint64_t bytes = 0;
};

/**
 * Turn counting on or off. Off (the default) costs one relaxed load
 * per allocation, so untraced timing runs leave it off.
 */
void setAllocCounting(bool enabled);

/** Totals while counting was on, since the process started. */
AllocCount allocCount();

} // namespace perfbench

#endif // SIRIUS_PERFBENCH_ALLOC_COUNTER_H
