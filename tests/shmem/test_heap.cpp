// Unit + property tests for the free-list allocator behind shmalloc and the
// CAF non-symmetric slab, and for the collective-allocation replay log.
#include "shmem/heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"

using shmem::CollectiveAllocLog;
using shmem::FreeListAllocator;

TEST(Heap, AllocatesAlignedNonOverlapping) {
  FreeListAllocator a(0, 1 << 16);
  auto x = a.allocate(100);
  auto y = a.allocate(100);
  ASSERT_TRUE(x && y);
  EXPECT_EQ(*x % 16, 0u);
  EXPECT_EQ(*y % 16, 0u);
  EXPECT_GE(*y, *x + 100);
  EXPECT_TRUE(a.check_invariants());
}

TEST(Heap, RespectsBaseOffset) {
  FreeListAllocator a(4096, 8192);
  auto x = a.allocate(64);
  ASSERT_TRUE(x);
  EXPECT_GE(*x, 4096u);
  EXPECT_LT(*x + 64, 4096u + 8192u);
}

TEST(Heap, ZeroSizeAllocationsAreDistinct) {
  FreeListAllocator a(0, 4096);
  auto x = a.allocate(0);
  auto y = a.allocate(0);
  ASSERT_TRUE(x && y);
  EXPECT_NE(*x, *y);
}

TEST(Heap, ExhaustionReturnsNullopt) {
  FreeListAllocator a(0, 256);
  EXPECT_TRUE(a.allocate(128));
  EXPECT_TRUE(a.allocate(128));
  EXPECT_FALSE(a.allocate(1));
}

TEST(Heap, FreeEnablesReuse) {
  FreeListAllocator a(0, 256);
  auto x = a.allocate(256);
  ASSERT_TRUE(x);
  EXPECT_FALSE(a.allocate(16));
  a.release(*x);
  EXPECT_TRUE(a.allocate(256));
}

TEST(Heap, CoalescingMergesNeighbors) {
  FreeListAllocator a(0, 4096);
  auto x = a.allocate(1024);
  auto y = a.allocate(1024);
  auto z = a.allocate(1024);
  ASSERT_TRUE(x && y && z);
  // Free in an order that requires both forward and backward coalescing.
  a.release(*x);
  a.release(*z);
  a.release(*y);
  EXPECT_TRUE(a.check_invariants());
  auto big = a.allocate(4096);
  EXPECT_TRUE(big);
}

TEST(Heap, DoubleFreeThrows) {
  FreeListAllocator a(0, 4096);
  auto x = a.allocate(64);
  a.release(*x);
  EXPECT_THROW(a.release(*x), std::invalid_argument);
  EXPECT_THROW(a.release(12345), std::invalid_argument);
}

TEST(Heap, BytesInUseTracksLiveBlocks) {
  FreeListAllocator a(0, 1 << 16);
  EXPECT_EQ(a.bytes_in_use(), 0u);
  auto x = a.allocate(100);  // rounds to 112
  EXPECT_EQ(a.bytes_in_use(), 112u);
  a.release(*x);
  EXPECT_EQ(a.bytes_in_use(), 0u);
}

// Property test: random alloc/free sequences keep invariants, never hand out
// overlapping blocks, and fully coalesce when everything is freed.
TEST(HeapProperty, RandomWorkloadMaintainsInvariants) {
  for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    sim::Rng rng(seed);
    FreeListAllocator a(0, 1 << 20);
    std::map<std::uint64_t, std::uint64_t> live;  // off -> requested size
    for (int step = 0; step < 4000; ++step) {
      const bool do_alloc = live.empty() || rng.below(100) < 60;
      if (do_alloc) {
        const std::uint64_t sz = 1 + rng.below(5000);
        auto off = a.allocate(sz);
        if (off) {
          // No overlap with any live block.
          for (const auto& [o, s] : live) {
            EXPECT_FALSE(*off < o + s && o < *off + sz)
                << "overlap at step " << step;
          }
          live[*off] = sz;
        }
      } else {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.below(live.size())));
        a.release(it->first);
        live.erase(it);
      }
      ASSERT_TRUE(a.check_invariants()) << "step " << step << " seed " << seed;
    }
    for (const auto& [o, s] : live) a.release(o);
    ASSERT_TRUE(a.check_invariants());
    EXPECT_EQ(a.bytes_in_use(), 0u);
    // Fully coalesced: one max-size allocation must succeed.
    EXPECT_TRUE(a.allocate((1 << 20) - 16));
  }
}

TEST(AllocLog, ReplayedOpsReturnTheRecordingRanksOffsets) {
  CollectiveAllocLog log(3, 1024, 4096);
  const std::uint64_t a = log.allocate(0, 100, "test");
  const std::uint64_t b = log.allocate(0, 50, "test");
  EXPECT_GE(a, 1024u);
  EXPECT_NE(a, b);
  for (int r = 1; r < 3; ++r) {
    EXPECT_EQ(log.allocate(r, 100, "test"), a);
    EXPECT_EQ(log.allocate(r, 50, "test"), b);
  }
  // A free is performed once, by the first rank; the block is then reused.
  for (int r = 0; r < 3; ++r) log.release(r, a, "test");
  const std::uint64_t c = log.allocate(2, 64, "test");
  EXPECT_EQ(c, a);
  EXPECT_EQ(log.allocate(0, 64, "test"), c);
  EXPECT_EQ(log.allocate(1, 64, "test"), c);
}

TEST(AllocLog, LoggedFailureReplaysAtTheSameIndex) {
  CollectiveAllocLog log(2, 0, 256);
  // Rank 0 runs ahead: 200 bytes, a failing 100, then frees the 200.
  const std::uint64_t a = log.allocate(0, 200, "test");
  EXPECT_THROW((void)log.allocate(0, 100, "test"), shmem::HeapExhaustedError);
  log.release(0, a, "test");
  // Rank 1 replays: by now 100 bytes would fit, but op 1 failed, so it
  // fails here too.
  EXPECT_EQ(log.allocate(1, 200, "test"), a);
  EXPECT_THROW((void)log.allocate(1, 100, "test"), shmem::HeapExhaustedError);
  log.release(1, a, "test");
  // A later, smaller allocation succeeds on every rank at one offset.
  const std::uint64_t b = log.allocate(1, 64, "test");
  EXPECT_EQ(log.allocate(0, 64, "test"), b);
}

TEST(AllocLog, MismatchedCallsThrowLogicError) {
  CollectiveAllocLog log(2, 0, 4096);
  const std::uint64_t a = log.allocate(0, 64, "test");
  EXPECT_THROW((void)log.allocate(1, 128, "test"), std::logic_error);  // size
  log.release(0, a, "test");
  // Rank 1's op 1 is an allocation where rank 0 freed: interleaved free.
  EXPECT_THROW((void)log.allocate(1, 64, "test"), std::logic_error);
  // And a free where the log holds an allocation.
  (void)log.allocate(0, 32, "test");
  EXPECT_THROW(log.release(1, a, "test"), std::logic_error);
}

// The clear helper behind every init-time zeroing: fresh heap bytes are
// still zero in a calloc'd segment and must not be written (writing them
// faults their pages in), while bytes an earlier allocation handed out may
// hold old data and must be zeroed. The segment here is filled with a
// sentinel so a write to a fresh byte shows.
TEST(AllocLog, ClearZeroesReusedBytesAndNeverWritesFreshOnes) {
  constexpr std::uint64_t kBase = 256;
  constexpr std::uint64_t kCap = 4096;
  constexpr std::byte kFresh{0xAB};
  constexpr std::byte kOld{0xCD};
  std::vector<std::byte> seg(kBase + kCap, kFresh);
  CollectiveAllocLog log(1, kBase, kCap);
  auto all_are = [&](std::uint64_t off, std::uint64_t n, std::byte v) {
    return std::all_of(seg.begin() + static_cast<std::ptrdiff_t>(off),
                       seg.begin() + static_cast<std::ptrdiff_t>(off + n),
                       [v](std::byte b) { return b == v; });
  };

  // Fresh allocation: nothing is written.
  const std::uint64_t a = log.allocate(0, 512, "test");
  log.clear(seg.data(), a, 512);
  EXPECT_TRUE(all_are(a, 512, kFresh));

  // Write, free, re-allocate the same bytes: all of them are zeroed.
  std::fill_n(seg.begin() + static_cast<std::ptrdiff_t>(a), 512, kOld);
  log.release(0, a, "test");
  const std::uint64_t b = log.allocate(0, 512, "test");
  ASSERT_EQ(b, a);
  log.clear(seg.data(), b, 512);
  EXPECT_TRUE(all_are(b, 512, std::byte{0}));

  // A larger block over the freed bytes and fresh heap: the reused prefix
  // is zeroed, the fresh tail keeps the sentinel.
  std::fill_n(seg.begin() + static_cast<std::ptrdiff_t>(b), 512, kOld);
  log.release(0, b, "test");
  const std::uint64_t c = log.allocate(0, 1024, "test");
  ASSERT_EQ(c, a);
  log.clear(seg.data(), c, 1024);
  EXPECT_TRUE(all_are(c, 512, std::byte{0}));
  EXPECT_TRUE(all_are(c + 512, 512, kFresh));

  // A sub-range that starts inside the fresh tail writes nothing; one that
  // straddles the boundary zeroes only its reused part.
  std::fill_n(seg.begin() + static_cast<std::ptrdiff_t>(c), 512, kOld);
  log.clear(seg.data(), c + 600, 100);
  EXPECT_TRUE(all_are(c + 512, 512, kFresh));
  log.clear(seg.data(), c + 256, 512);
  EXPECT_TRUE(all_are(c, 256, kOld));
  EXPECT_TRUE(all_are(c + 256, 256, std::byte{0}));
  EXPECT_TRUE(all_are(c + 512, 512, kFresh));

  // Outside any live block (the library's internal area below the heap, or
  // freed memory) nothing is known to be zero: the range is zeroed in full.
  log.clear(seg.data(), 0, 64);
  EXPECT_TRUE(all_are(0, 64, std::byte{0}));
}
