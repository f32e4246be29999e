// Pooled, lazily-handed-out fiber stacks.
//
// At 16k simulated PEs, eagerly allocating (and zeroing) one stack per
// fiber at spawn time dominates both memory and startup: most PEs spend
// the run parked in a barrier and many never need deep frames at all. The
// engine instead acquires a stack from this pool on a fiber's *first*
// switch-in and returns it when the fiber finishes or is killed.
//
// Stacks are mmap'd (page-granular, never zeroed twice) and recycled
// through size-keyed free lists. A released stack keeps its resident pages:
// a fiber that ran touched only the top page or two of its stack, and
// dropping them with madvise(MADV_DONTNEED) would cost one syscall per
// finished fiber (16,384 at the end of a 16k-image run) to free memory that
// the pool's destructor unmaps moments later, or that the next fiber to
// reuse the stack faults straight back in. The pool keeps peak-in-use
// accounting so `engine.stack_bytes_peak` can be exported as an
// observability counter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace sim {

class StackPool {
 public:
  struct Stack {
    std::byte* base = nullptr;
    std::size_t bytes = 0;  ///< page-rounded usable size
  };

  StackPool();
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// Hands out a stack of at least `bytes` (rounded up to whole pages),
  /// reusing a pooled one of the same rounded size when available.
  Stack acquire(std::size_t bytes);

  /// Returns a stack to the pool (its resident pages stay mapped).
  void release(const Stack& s);

  std::uint64_t mapped_bytes() const { return mapped_bytes_; }
  std::uint64_t in_use_bytes() const { return in_use_bytes_; }
  std::uint64_t peak_in_use_bytes() const { return peak_in_use_bytes_; }
  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t reuses() const { return reuses_; }

 private:
  std::size_t page_;
  // Free stacks keyed by rounded size. Fibers in one run overwhelmingly
  // share one or two stack sizes, so the map stays tiny.
  std::unordered_map<std::size_t, std::vector<std::byte*>> free_;
  std::vector<Stack> mapped_;  // every mapping ever made, for teardown
  std::uint64_t mapped_bytes_ = 0;
  std::uint64_t in_use_bytes_ = 0;
  std::uint64_t peak_in_use_bytes_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace sim
