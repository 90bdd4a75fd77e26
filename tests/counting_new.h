#ifndef WLM_TESTS_COUNTING_NEW_H_
#define WLM_TESTS_COUNTING_NEW_H_

// Replaces the global operator new of the test binary whose one source
// file includes this header, so the test can count heap allocations: set
// g_counting, run the code under test, read g_allocations.

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

bool g_counting = false;
int64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// std::stable_sort's buffer comes from the nothrow form; a sanitizer that
// supplies its own would not pair with the free below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

// The operator new above hands out malloc'd memory, so free is its match;
// GCC flags the pairing once it inlines these into a delete expression.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

#endif  // WLM_TESTS_COUNTING_NEW_H_
