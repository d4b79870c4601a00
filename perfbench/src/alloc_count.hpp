// perfbench -- process-wide allocation counter.
//
// alloc_count.cpp replaces the global operator new/delete of the benchmark
// binary (never of the library or its tests). Counting is off by default;
// the traced run switches it on around the work it attributes, so the
// untraced runs pay one relaxed load per allocation and nothing else.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t calls = 0;  ///< operator new calls (all forms)
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// Start counting from zero.
void alloc_count_begin();
/// Stop counting and return what was counted since alloc_count_begin().
AllocCounts alloc_count_end();

}  // namespace perfbench
