// First-fit free-list allocator over an abstract [0, capacity) byte range,
// and the collective-allocation replay log built on it.
//
// The allocator is used twice in this repository, mirroring the paper's two
// allocation domains:
//   * the symmetric heaps of every library (shmalloc/shfree §IV-A,
//     ARMCI_Malloc, MPI window memory, CAF allocate over GASNet and Cray
//     CAF) — one CollectiveAllocLog per library owns one shared allocator
//     and produces identical offsets on every rank because the calls are
//     collective with identical sizes;
//   * the CAF managed buffer for non-symmetric remotely-accessible data
//     (§IV-A), carved per image out of a pre-shmalloc'ed slab.
//
// Offset-based (not pointer-based) so a single instance can describe
// allocations that exist at the same offset in many PEs' segments.
//
// The allocator also keeps a high-water mark: every block remembers the
// first of its bytes that no earlier allocation handed out. Segments are
// calloc'd, so those bytes are still zero, and CollectiveAllocLog::clear()
// zeroes a fresh allocation by writing only the bytes it reuses. A large
// fresh allocation then costs no page faults until it is used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace shmem {

/// Thrown when a symmetric-heap or managed-slab allocation cannot be
/// satisfied. Derives from std::bad_alloc so legacy catch sites keep
/// working, but carries a descriptive message (which heap, requested size,
/// current usage) instead of the mute "std::bad_alloc". Runtimes that offer
/// stat= out-parameters (CAF allocate) catch it and return an error code.
class HeapExhaustedError : public std::bad_alloc {
 public:
  HeapExhaustedError(const std::string& where, std::uint64_t requested,
                     std::uint64_t in_use, std::uint64_t capacity)
      : requested_(requested), in_use_(in_use), capacity_(capacity) {
    std::ostringstream os;
    os << where << ": cannot allocate " << requested << " bytes (" << in_use
       << " of " << capacity << " in use)";
    msg_ = os.str();
  }

  const char* what() const noexcept override { return msg_.c_str(); }
  std::uint64_t requested() const { return requested_; }
  std::uint64_t in_use() const { return in_use_; }
  std::uint64_t capacity() const { return capacity_; }

 private:
  std::string msg_;
  std::uint64_t requested_;
  std::uint64_t in_use_;
  std::uint64_t capacity_;
};

class FreeListAllocator {
 public:
  /// Manages [base, base+capacity). All results are >= base and aligned to
  /// `alignment` (a power of two).
  FreeListAllocator(std::uint64_t base, std::uint64_t capacity,
                    std::uint64_t alignment = 16);

  /// Allocates `bytes` (rounded up to the alignment); returns std::nullopt
  /// when no suitable hole exists.
  std::optional<std::uint64_t> allocate(std::uint64_t bytes);

  /// Releases a block previously returned by allocate(). Throws
  /// std::invalid_argument for unknown offsets (double free / corruption).
  void release(std::uint64_t offset);

  std::uint64_t bytes_in_use() const { return in_use_; }
  std::uint64_t capacity() const { return capacity_; }
  std::size_t live_blocks() const { return blocks_.size(); }

  /// The tail of the live block holding `offset` that no earlier
  /// allocation handed out: [begin, block end), empty when the block reuses
  /// all of its bytes. {0, 0} when `offset` lies in no live block.
  struct Span {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  Span fresh_span(std::uint64_t offset) const;

  /// Invariant check used by property tests: free holes are disjoint,
  /// sorted, coalesced, and free+used == capacity.
  bool check_invariants() const;

 private:
  std::uint64_t align_up(std::uint64_t v) const {
    return (v + alignment_ - 1) & ~(alignment_ - 1);
  }

  struct Block {
    std::uint64_t size;
    std::uint64_t fresh;  ///< first byte no earlier allocation handed out
  };

  std::uint64_t base_;
  std::uint64_t capacity_;
  std::uint64_t alignment_;
  std::map<std::uint64_t, std::uint64_t> holes_;  // offset -> size
  std::map<std::uint64_t, Block> blocks_;         // live offset -> block
  std::uint64_t in_use_ = 0;
  std::uint64_t high_water_;  ///< end of the highest byte ever handed out
};

/// Replay log for one library's collective symmetric allocations. Ranks are
/// not synchronized on entry: the first rank to reach op i performs it on
/// the shared allocator and records it; every later rank replays the
/// record. Failed allocations are recorded too, so every rank fails at the
/// same op index (and none reaches the caller's barrier); later, smaller
/// allocations still succeed. The caller runs its own barrier after a
/// successful op.
class CollectiveAllocLog {
 public:
  /// Allocates from [base, base+capacity) for ranks 0..nranks-1.
  CollectiveAllocLog(int nranks, std::uint64_t base, std::uint64_t capacity);

  /// `rank`'s next collective allocation of `bytes`; returns the offset.
  /// Throws std::logic_error when the logged op is a free or has another
  /// size, and HeapExhaustedError when the logged allocation failed. `what`
  /// names the calling routine in either message.
  std::uint64_t allocate(int rank, std::uint64_t bytes, const char* what);
  /// `rank`'s next collective free of `offset`. Throws std::logic_error
  /// when the logged op is an allocation or frees another offset.
  void release(int rank, std::uint64_t offset, const char* what);

  /// Zeroes [offset, offset+n) of one rank's segment (`segment` is its
  /// base; offsets are segment offsets), where n bytes lie in one live
  /// allocation. Bytes the heap hands out for the first time are already
  /// zero and are not written, so only reused bytes are; a range outside
  /// any live allocation is zeroed in full.
  void clear(std::byte* segment, std::uint64_t offset, std::size_t n) const;

 private:
  struct Op {
    bool is_free;
    std::uint64_t arg;     ///< size for an allocation, offset for a free
    std::uint64_t result;  ///< offset for an allocation, or kFailed
  };
  static constexpr std::uint64_t kFailed = ~std::uint64_t{0};

  FreeListAllocator allocator_;
  std::vector<Op> log_;
  std::vector<std::size_t> cursor_;  ///< per rank: index of its next op
};

}  // namespace shmem
