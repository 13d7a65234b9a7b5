// Allocation counting for the traced binary. alloc_count.cpp replaces the
// global operator new and counts calls made by the calling thread;
// alloc_count_off.cpp, linked into the untraced binary, leaves the
// allocator alone and reports that nothing is counted.
#pragma once

#include <cstdint>

namespace perfbench {

/// Calls to the global operator new made by this thread so far, or -1
/// when this binary does not count.
[[nodiscard]] std::int64_t thread_allocations();

}  // namespace perfbench
