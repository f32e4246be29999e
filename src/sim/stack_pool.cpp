#include "sim/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <new>

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#define SIM_STACK_ASAN 1
#else
#define SIM_STACK_ASAN 0
#endif

namespace sim {

StackPool::StackPool()
    : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {}

StackPool::~StackPool() {
  for (const Stack& s : mapped_) munmap(s.base, s.bytes);
}

StackPool::Stack StackPool::acquire(std::size_t bytes) {
  const std::size_t rounded = ((bytes > 0 ? bytes : 1) + page_ - 1) & ~(page_ - 1);
  ++acquires_;
  in_use_bytes_ += rounded;
  if (in_use_bytes_ > peak_in_use_bytes_) peak_in_use_bytes_ = in_use_bytes_;

  auto it = free_.find(rounded);
  if (it != free_.end() && !it->second.empty()) {
    std::byte* base = it->second.back();
    it->second.pop_back();
    ++reuses_;
    return Stack{base, rounded};
  }

  void* p = mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  Stack s{static_cast<std::byte*>(p), rounded};
  mapped_.push_back(s);
  mapped_bytes_ += rounded;
  return s;
}

void StackPool::release(const Stack& s) {
  assert(s.base != nullptr && (s.bytes & (page_ - 1)) == 0);
  in_use_bytes_ -= s.bytes;
#if SIM_STACK_ASAN
  // The finished fiber unwound normally, but clear any leftover redzone
  // poison before the frame region is handed to an unrelated fiber.
  __asan_unpoison_memory_region(s.base, s.bytes);
#endif
  free_[s.bytes].push_back(s.base);
}

}  // namespace sim
