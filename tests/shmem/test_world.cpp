// Integration tests for the OpenSHMEM implementation: symmetric allocation,
// RMA, strided RMA (both vendor behaviours), wait_until, atomics,
// collectives, and global locks.
#include "shmem/world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "net/profiles.hpp"

using namespace shmem;

namespace {

struct Harness {
  sim::Engine engine{64 * 1024};
  net::Fabric fabric;
  World world;

  explicit Harness(int npes, net::Machine m = net::Machine::kStampede,
                   net::Library lib = net::Library::kShmemMvapich,
                   std::size_t heap = 2 << 20)
      : fabric(net::machine_profile(m), npes),
        world(engine, fabric, net::sw_profile(lib, m), heap) {}

  void run(std::function<void()> pe_main) {
    world.launch(std::move(pe_main));
    engine.run();
  }
};

}  // namespace

TEST(ShmemWorld, PeIdentity) {
  Harness h(20);
  std::vector<int> seen(20, -1);
  h.run([&] {
    EXPECT_EQ(h.world.n_pes(), 20);
    seen[h.world.my_pe()] = h.world.my_pe();
  });
  for (int i = 0; i < 20; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ShmemWorld, ShmallocIsSymmetric) {
  Harness h(8);
  std::vector<std::uint64_t> offs(8);
  h.run([&] {
    auto* p = static_cast<int*>(h.world.shmalloc(64 * sizeof(int)));
    offs[h.world.my_pe()] = h.world.offset_of(p);
    auto* q = h.world.shmalloc(128);
    offs[h.world.my_pe()] += h.world.offset_of(q) << 20;  // mix both
    h.world.shfree(q);
    h.world.shfree(p);
  });
  for (int i = 1; i < 8; ++i) EXPECT_EQ(offs[i], offs[0]);
}

TEST(ShmemWorld, ShmallocMismatchDetected) {
  Harness h(2);
  EXPECT_THROW(
      h.run([&] {
        // PE 0 and PE 1 disagree on the size: a user error the collective
        // replay log must catch.
        (void)h.world.shmalloc(h.world.my_pe() == 0 ? 64 : 128);
      }),
      std::logic_error);
}

TEST(ShmemWorld, PutGetRoundTrip) {
  Harness h(32);
  h.run([&] {
    const int me = h.world.my_pe();
    const int n = h.world.n_pes();
    auto* buf = static_cast<int*>(h.world.shmalloc(4 * sizeof(int)));
    for (int i = 0; i < 4; ++i) buf[i] = me * 10 + i;
    h.world.barrier_all();
    // Put my values into my right neighbor's buffer; get from my left.
    const int right = (me + 1) % n;
    std::vector<int> mine(4);
    for (int i = 0; i < 4; ++i) mine[i] = me * 10 + i;
    // (puts target a scratch region to avoid racing the verification gets)
    auto* scratch = static_cast<int*>(h.world.shmalloc(4 * sizeof(int)));
    h.world.put(scratch, mine.data(), 4, right);
    h.world.quiet();
    h.world.barrier_all();
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(scratch[i], ((me - 1 + n) % n) * 10 + i);
    }
    // And a get of the right neighbor's original buffer.
    std::vector<int> got(4);
    h.world.get(got.data(), buf, 4, right);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], right * 10 + i);
    h.world.barrier_all();
    h.world.shfree(scratch);
    h.world.shfree(buf);
  });
}

TEST(ShmemWorld, Figure1Program) {
  // The exact program of paper Figure 1 (right side), via the object API.
  Harness h(8);
  h.run([&] {
    auto* coarray_x = static_cast<int*>(h.world.shmalloc(4 * sizeof(int)));
    auto* coarray_y = static_cast<int*>(h.world.shmalloc(4 * sizeof(int)));
    const int my_image = h.world.my_pe() + 1;  // CAF images are 1-based
    for (int i = 0; i < 4; ++i) {
      coarray_x[i] = my_image;
      coarray_y[i] = 0;
    }
    h.world.barrier_all();
    // coarray_y(2) = coarray_x(3)[4] : get element 3 (1-based) from image 4.
    h.world.get(&coarray_y[1], &coarray_x[2], 1, 3);
    // coarray_x(1)[4] = coarray_y(2) : put element into image 4.
    h.world.put(&coarray_x[0], &coarray_y[1], 1, 3);
    h.world.quiet();
    h.world.barrier_all();
    EXPECT_EQ(coarray_y[1], 4);  // image 4 stored my_image == 4
    if (my_image == 4) {
      EXPECT_EQ(coarray_x[0], 4);
    }
  });
}

TEST(ShmemWorld, IputScattersForBothVendors) {
  for (auto [m, lib] : {std::pair{net::Machine::kStampede,
                                  net::Library::kShmemMvapich},
                        std::pair{net::Machine::kXC30,
                                  net::Library::kShmemCray}}) {
    Harness h(32, m, lib);
    h.run([&] {
      auto* dst = static_cast<int*>(h.world.shmalloc(64 * sizeof(int)));
      std::fill_n(dst, 64, -1);
      h.world.barrier_all();
      if (h.world.my_pe() == 0) {
        std::vector<int> src(16);
        std::iota(src.begin(), src.end(), 1000);
        h.world.iput(dst, src.data(), /*dst_stride=*/4, /*src_stride=*/1, 16,
                     /*pe=*/16);
        h.world.quiet();
      }
      h.world.barrier_all();
      if (h.world.my_pe() == 16) {
        for (int i = 0; i < 16; ++i) {
          EXPECT_EQ(dst[4 * i], 1000 + i) << "vendor " << h.world.sw().name;
          if (i % 4 != 0) {
            EXPECT_EQ(dst[4 * i + 1], -1);
          }
        }
      }
      h.world.barrier_all();
      h.world.shfree(dst);
    });
  }
}

TEST(ShmemWorld, IgetGathersForBothVendors) {
  for (auto [m, lib] : {std::pair{net::Machine::kStampede,
                                  net::Library::kShmemMvapich},
                        std::pair{net::Machine::kXC30,
                                  net::Library::kShmemCray}}) {
    Harness h(32, m, lib);
    h.run([&] {
      auto* src = static_cast<int*>(h.world.shmalloc(64 * sizeof(int)));
      for (int i = 0; i < 64; ++i) src[i] = h.world.my_pe() * 1000 + i;
      h.world.barrier_all();
      if (h.world.my_pe() == 0) {
        std::vector<int> dst(8, -1);
        h.world.iget(dst.data(), src, /*dst_stride=*/1, /*src_stride=*/8, 8,
                     16);
        for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], 16'000 + 8 * i);
      }
      h.world.barrier_all();
      h.world.shfree(src);
    });
  }
}

TEST(ShmemWorld, CraySingleIputFasterThanMvapichLoop) {
  // The core §V-B-2 observation: hardware iput vs software loop.
  auto run_time = [](net::Machine m, net::Library lib) {
    Harness h(32, m, lib);
    sim::Time elapsed = 0;
    h.run([&] {
      auto* dst = static_cast<int*>(h.world.shmalloc(4096 * sizeof(int)));
      h.world.barrier_all();
      if (h.world.my_pe() == 0) {
        std::vector<int> src(1024, 7);
        const sim::Time t0 = h.engine.now();
        h.world.iput(dst, src.data(), 4, 1, 1024, 16);
        h.world.quiet();
        elapsed = h.engine.now() - t0;
      }
      h.world.barrier_all();
    });
    return elapsed;
  };
  const sim::Time cray = run_time(net::Machine::kXC30, net::Library::kShmemCray);
  const sim::Time mvapich =
      run_time(net::Machine::kStampede, net::Library::kShmemMvapich);
  EXPECT_LT(cray * 3, mvapich);
}

TEST(ShmemWorld, WaitUntilBlocksUntilRemoteWrite) {
  Harness h(17);
  h.run([&] {
    auto* flag = static_cast<std::int64_t*>(h.world.shmalloc(8));
    *flag = 0;
    h.world.barrier_all();
    if (h.world.my_pe() == 16) {
      h.world.engine().advance(50'000);
      std::int64_t one = 1;
      h.world.put(flag, &one, 1, 0);
      h.world.quiet();
    } else if (h.world.my_pe() == 0) {
      h.world.wait_until(flag, Cmp::kEq, 1);
      EXPECT_GE(h.engine.now(), 50'000);
      EXPECT_EQ(*flag, 1);
    }
    h.world.barrier_all();
  });
}

TEST(ShmemWorld, AtomicsSerializeCorrectly) {
  Harness h(48, net::Machine::kTitan, net::Library::kShmemCray);
  h.run([&] {
    auto* ctr = static_cast<std::int64_t*>(h.world.shmalloc(8));
    *ctr = 0;
    h.world.barrier_all();
    h.world.add(ctr, 2, 0);
    h.world.inc(ctr, 0);
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      EXPECT_EQ(*ctr, 3 * 48);
    }
    h.world.barrier_all();
    // swap/cswap agreement: exactly one PE claims the token.
    auto* token = static_cast<std::int64_t*>(h.world.shmalloc(8));
    *token = 0;
    h.world.barrier_all();
    const std::int64_t prev =
        h.world.cswap(token, 0, h.world.my_pe() + 1, 0);
    static int winners = 0;
    if (prev == 0) ++winners;
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      EXPECT_EQ(winners, 1);
    }
  });
}

TEST(ShmemWorld, BarrierActuallySynchronizes) {
  Harness h(16);
  h.run([&] {
    // Each PE arrives at a staggered time; all must leave no earlier than
    // the last arrival.
    const sim::Time arrive = 1'000 * (h.world.my_pe() + 1);
    h.engine.advance(arrive);
    h.world.barrier_all();
    EXPECT_GE(h.engine.now(), 16'000);
  });
}

// Exact work counters of 8 barrier_all calls at 64 PEs, a host-independent
// gate on the barrier's host cost. The event count is the simulated
// schedule and must never move; the switch count is what the parked
// dissemination step saves (the per-round fiber loop made 5,987 switches).
TEST(ShmemWorld, BarrierAllWorkCountersAreExact) {
  Harness h(64);
  std::vector<sim::Time> left(64, -1);
  h.run([&] {
    h.engine.advance(100 * (h.world.my_pe() % 5));
    for (int k = 0; k < 8; ++k) h.world.barrier_all();
    left[h.world.my_pe()] = h.engine.now();
  });
  const sim::EngineStats st = h.engine.stats();
  EXPECT_EQ(st.events, 9'059u);
  // 64 first switch-ins, 51 after a non-zero stagger, 1 per barrier per PE.
  EXPECT_EQ(st.switches, 627u);
  EXPECT_EQ(*std::max_element(left.begin(), left.end()), 37'381);
}

// The PE limit lives in fabric::Domain; World must still refuse such a
// world before it allocates its symmetric heap.
TEST(ShmemWorld, RejectsMorePesThanTheRoundArraysHold) {
  sim::Engine engine;
  net::Fabric fabric(net::machine_profile(net::Machine::kStampede),
                     (1 << 16) + 1);
  EXPECT_THROW(World(engine, fabric,
                     net::sw_profile(net::Library::kShmemMvapich,
                                     net::Machine::kStampede),
                     2 << 20),
               std::invalid_argument);
}

class ShmemCollectives : public ::testing::TestWithParam<int> {};

TEST_P(ShmemCollectives, BroadcastReachesAllPes) {
  const int n = GetParam();
  Harness h(n);
  h.run([&] {
    auto* buf = static_cast<int*>(h.world.shmalloc(8 * sizeof(int)));
    const int root = n > 3 ? 3 : 0;
    if (h.world.my_pe() == root) {
      for (int i = 0; i < 8; ++i) buf[i] = 777 + i;
    } else {
      std::fill_n(buf, 8, -1);
    }
    h.world.barrier_all();
    h.world.broadcast(buf, 8 * sizeof(int), root);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(buf[i], 777 + i);
    h.world.barrier_all();
    h.world.shfree(buf);
  });
}

TEST_P(ShmemCollectives, SumReductionMatchesSerial) {
  const int n = GetParam();
  Harness h(n);
  h.run([&] {
    const int me = h.world.my_pe();
    auto* dst = static_cast<long*>(h.world.shmalloc(4 * sizeof(long)));
    long src[4] = {me + 1L, 2L * me, -me, me * me * 1L};
    h.world.reduce(dst, src, 4, ReduceOp::kSum);
    long e0 = 0, e1 = 0, e2 = 0, e3 = 0;
    for (int p = 0; p < n; ++p) {
      e0 += p + 1;
      e1 += 2 * p;
      e2 += -p;
      e3 += p * p;
    }
    EXPECT_EQ(dst[0], e0);
    EXPECT_EQ(dst[1], e1);
    EXPECT_EQ(dst[2], e2);
    EXPECT_EQ(dst[3], e3);
    h.world.barrier_all();
    h.world.shfree(dst);
  });
}

TEST_P(ShmemCollectives, MinMaxReductions) {
  const int n = GetParam();
  Harness h(n);
  h.run([&] {
    const int me = h.world.my_pe();
    auto* out = static_cast<double*>(h.world.shmalloc(sizeof(double)));
    double v = (me * 37 % n) + 0.5;
    h.world.reduce(out, &v, 1, ReduceOp::kMax);
    double expect_max = 0;
    for (int p = 0; p < n; ++p) expect_max = std::max(expect_max, (p * 37 % n) + 0.5);
    EXPECT_DOUBLE_EQ(out[0], expect_max);
    h.world.reduce(out, &v, 1, ReduceOp::kMin);
    double expect_min = 1e30;
    for (int p = 0; p < n; ++p) expect_min = std::min(expect_min, (p * 37 % n) + 0.5);
    EXPECT_DOUBLE_EQ(out[0], expect_min);
    h.world.barrier_all();
    h.world.shfree(out);
  });
}

INSTANTIATE_TEST_SUITE_P(PeCounts, ShmemCollectives,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 17, 33, 64));

TEST(ShmemWorld, FcollectGathersInRankOrder) {
  Harness h(12);
  h.run([&] {
    auto* dst = static_cast<int*>(h.world.shmalloc(12 * sizeof(int)));
    const int mine = 100 + h.world.my_pe();
    h.world.fcollect(dst, &mine, sizeof(int));
    for (int p = 0; p < 12; ++p) EXPECT_EQ(dst[p], 100 + p);
    h.world.barrier_all();
    h.world.shfree(dst);
  });
}

TEST(ShmemWorld, GlobalLockMutualExclusion) {
  Harness h(24, net::Machine::kTitan, net::Library::kShmemCray);
  int counter = 0;  // host-side; protected only by the simulated lock
  h.run([&] {
    auto* lock = static_cast<std::int64_t*>(h.world.shmalloc(8));
    *lock = 0;
    h.world.barrier_all();
    for (int round = 0; round < 3; ++round) {
      h.world.set_lock(lock);
      const int snapshot = counter;
      h.engine.advance(500);  // critical section work
      counter = snapshot + 1;
      h.world.clear_lock(lock);
    }
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      EXPECT_EQ(counter, 24 * 3);
    }
  });
}

TEST(ShmemWorld, TestLockNonBlocking) {
  Harness h(2, net::Machine::kTitan, net::Library::kShmemCray);
  h.run([&] {
    auto* lock = static_cast<std::int64_t*>(h.world.shmalloc(8));
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      EXPECT_EQ(h.world.test_lock(lock), 0);  // acquired
      EXPECT_EQ(h.world.test_lock(lock), 1);  // already held
      h.world.clear_lock(lock);
    }
    h.world.barrier_all();
  });
}

TEST(ShmemWorld, ShmemPtrOnlyWithinNode) {
  Harness h(32);
  h.run([&] {
    auto* x = static_cast<int*>(h.world.shmalloc(sizeof(int)));
    *x = h.world.my_pe();
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      int* same_node = static_cast<int*>(h.world.ptr(x, 3));
      ASSERT_NE(same_node, nullptr);
      EXPECT_EQ(*same_node, 3);  // direct load from a same-node PE
      EXPECT_EQ(h.world.ptr(x, 16), nullptr);  // other node
    }
    h.world.barrier_all();
  });
}

TEST(ShmemWorld, QuietOrdersFigure4Sequence) {
  // Paper Figure 4: a(:)[2] = b(:) followed by c(:) = a(:)[2] requires
  // quiet between them; with quiet the get must see the put's data.
  Harness h(4);
  h.run([&] {
    auto* a = static_cast<int*>(h.world.shmalloc(16 * sizeof(int)));
    std::fill_n(a, 16, 0);
    std::vector<int> b(16, 9), c(16, -1);
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      h.world.put(a, b.data(), 16, 1);
      h.world.quiet();  // remote completion before the read-back
      h.world.get(c.data(), a, 16, 1);
      for (int i = 0; i < 16; ++i) EXPECT_EQ(c[i], 9);
    }
    h.world.barrier_all();
  });
}
