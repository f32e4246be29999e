// Tests for the ARMCI-like substrate: collective allocation, contiguous and
// multi-level strided transfers (PutS/GetS), Rmw, mutexes, fences.
#include "armci/armci.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "net/profiles.hpp"

using namespace armci;

namespace {

struct Harness {
  sim::Engine engine{64 * 1024};
  net::Fabric fabric;
  World world;

  explicit Harness(int nproc, net::Machine m = net::Machine::kStampede)
      : fabric(net::machine_profile(m), nproc),
        world(engine, fabric, net::sw_profile(net::Library::kArmci, m),
              1 << 20) {}

  void run(std::function<void()> main) {
    world.launch(std::move(main));
    engine.run();
  }
};

}  // namespace

TEST(Armci, CollectiveMallocSymmetricOffsets) {
  Harness h(8);
  std::vector<std::uint64_t> offs(8);
  h.run([&] {
    const std::uint64_t a = h.world.malloc_collective(128);
    const std::uint64_t b = h.world.malloc_collective(64);
    offs[h.world.me()] = a ^ (b << 20);
    h.world.free_collective(b);
    h.world.free_collective(a);
  });
  for (int i = 1; i < 8; ++i) EXPECT_EQ(offs[i], offs[0]);
}

TEST(Armci, PutGetFence) {
  Harness h(32);
  h.run([&] {
    const std::uint64_t off = h.world.malloc_collective(256);
    if (h.world.me() == 0) {
      std::vector<int> v(16);
      std::iota(v.begin(), v.end(), 90);
      h.world.put(16, off, v.data(), v.size() * sizeof(int));
      h.world.fence(16);
      std::vector<int> back(16, 0);
      h.world.get(back.data(), 16, off, back.size() * sizeof(int));
      EXPECT_EQ(back, v);
    }
    h.world.barrier();
  });
}

TEST(Armci, PutSOneLevelStride) {
  Harness h(32);
  h.run([&] {
    const std::uint64_t off = h.world.malloc_collective(4096);
    std::memset(h.world.base(h.world.me()) + off, 0, 4096);
    h.world.barrier();
    if (h.world.me() == 0) {
      // 8 runs of 8 bytes, destination stride 32 bytes.
      std::vector<std::int64_t> src(8);
      std::iota(src.begin(), src.end(), 100);
      StridedDesc d;
      d.stride_levels = 1;
      d.counts[0] = 8;
      d.counts[1] = 8;
      d.src_strides[0] = 8;
      d.dst_strides[0] = 32;
      h.world.puts(16, off, src.data(), d);
      h.world.all_fence();
    }
    h.world.barrier();
    if (h.world.me() == 16) {
      for (int i = 0; i < 8; ++i) {
        std::int64_t v = 0;
        std::memcpy(&v, h.world.base(16) + off + i * 32, sizeof v);
        EXPECT_EQ(v, 100 + i);
      }
    }
    h.world.barrier();
  });
}

TEST(Armci, PutSTwoLevelPatch) {
  // A 2-level descriptor: a 4x3 patch of 8-byte runs — the Global Arrays
  // style N-d block transfer.
  Harness h(4);
  h.run([&] {
    const std::uint64_t off = h.world.malloc_collective(4096);
    std::memset(h.world.base(h.world.me()) + off, 0, 4096);
    h.world.barrier();
    if (h.world.me() == 0) {
      std::vector<std::int64_t> src(12);
      std::iota(src.begin(), src.end(), 0);
      StridedDesc d;
      d.stride_levels = 2;
      d.counts[0] = 8;           // run bytes
      d.counts[1] = 4;           // runs per row
      d.counts[2] = 3;           // rows
      d.src_strides[0] = 8;      // packed source
      d.src_strides[1] = 32;
      d.dst_strides[0] = 16;     // every other slot
      d.dst_strides[1] = 128;    // row pitch
      h.world.puts(1, off, src.data(), d);
      h.world.all_fence();
    }
    h.world.barrier();
    if (h.world.me() == 1) {
      for (int row = 0; row < 3; ++row) {
        for (int run = 0; run < 4; ++run) {
          std::int64_t v = 0;
          std::memcpy(&v, h.world.base(1) + off + row * 128 + run * 16, 8);
          EXPECT_EQ(v, row * 4 + run);
        }
      }
    }
    h.world.barrier();
  });
}

TEST(Armci, GetSGathersPatch) {
  Harness h(4);
  h.run([&] {
    const std::uint64_t off = h.world.malloc_collective(4096);
    auto* mine = h.world.base(h.world.me()) + off;
    for (int i = 0; i < 64; ++i) {
      const std::int64_t v = h.world.me() * 1000 + i;
      std::memcpy(mine + i * 8, &v, 8);
    }
    h.world.barrier();
    if (h.world.me() == 0) {
      std::vector<std::int64_t> dst(6, -1);
      StridedDesc d;
      d.stride_levels = 1;
      d.counts[0] = 8;
      d.counts[1] = 6;
      d.src_strides[0] = 24;  // every third int64
      d.dst_strides[0] = 8;   // packed
      h.world.gets(dst.data(), 2, off, d);
      for (int i = 0; i < 6; ++i) EXPECT_EQ(dst[i], 2000 + 3 * i);
    }
    h.world.barrier();
  });
}

TEST(Armci, RmwFetchAddAndSwap) {
  Harness h(16);
  h.run([&] {
    const std::uint64_t off = h.world.malloc_collective(8);
    std::memset(h.world.base(h.world.me()) + off, 0, 8);
    h.world.barrier();
    (void)h.world.rmw_fetch_add(0, off, 3);
    h.world.barrier();
    if (h.world.me() == 0) {
      std::int64_t v = 0;
      std::memcpy(&v, h.world.base(0) + off, 8);
      EXPECT_EQ(v, 48);
      EXPECT_EQ(h.world.rmw_swap(0, off, -1), 48);
      std::memcpy(&v, h.world.base(0) + off, 8);
      EXPECT_EQ(v, -1);
    }
    h.world.barrier();
  });
}

TEST(Armci, MutexMutualExclusion) {
  Harness h(12);
  int counter = 0;
  h.run([&] {
    h.world.create_mutexes(2);
    for (int round = 0; round < 3; ++round) {
      h.world.lock(1, 0);  // mutex 1 hosted on process 0
      const int snap = counter;
      h.engine.advance(400);
      counter = snap + 1;
      h.world.unlock(1, 0);
    }
    h.world.barrier();
  });
  EXPECT_EQ(counter, 36);
}

TEST(Armci, MutexesPerProcessAreIndependent) {
  Harness h(6);
  h.run([&] {
    h.world.create_mutexes(1);
    // Everyone may simultaneously hold mutex 0 of a *different* process.
    const int target = h.world.me();
    h.world.lock(0, target);
    h.engine.advance(1'000);
    h.world.unlock(0, target);
    h.world.barrier();
  });
}

TEST(Armci, WaitWakesOnPutInsideWatchedWord) {
  // A put that begins inside the watched word (its upper half) changes the
  // word's value, so it must wake the waiter.
  Harness h(32);
  h.run([&] {
    const std::uint64_t off = h.world.malloc_collective(8);
    if (h.world.me() == 0) {
      h.world.wait_until_local(off, fabric::Cmp::kNe, 0);
      std::int64_t v = 0;
      std::memcpy(&v, h.world.base(0) + off, sizeof v);
      EXPECT_EQ(v, std::int64_t{1} << 32);
    } else if (h.world.me() == 16) {
      const std::int32_t one = 1;
      h.world.put(0, off + 4, &one, sizeof one);
      h.world.all_fence();
    }
    h.world.barrier();
  });
}
