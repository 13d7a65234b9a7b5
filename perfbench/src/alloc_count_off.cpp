#include "alloc_count.h"

namespace perfbench {

std::int64_t thread_allocations() { return -1; }

}  // namespace perfbench
