// Conduit conformance suite: exercises the raw caf::Conduit contract over
// every implementation (ShmemConduit, GasnetConduit, ArmciConduit) so that
// a new conduit can be validated against the exact semantics the runtime
// depends on, independent of the higher-level coarray machinery.
//
// Every case runs twice per conduit: once over a perfect wire, and once
// with 1% message loss injected — the reliable-delivery layer must make
// the loss invisible (same data lands, only timing differs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "caf_test_util.hpp"
#include "obs/obs.hpp"

using namespace caf;
using caftest::Harness;
using caftest::Stack;

namespace {

Conduit& conduit(Harness& h) { return h.rt().conduit(); }

class ConduitConformance
    : public ::testing::TestWithParam<std::tuple<Stack, int>> {
 protected:
  Harness make(int images) {
    const Stack stack = std::get<0>(GetParam());
    const int loss_pct = std::get<1>(GetParam());
    net::FaultPlan plan;
    if (loss_pct > 0) {
      plan.with_seed(0xC0FFEE).with_loss(loss_pct / 100.0);
    }
    return Harness(stack, images, {}, 2 << 20, plan);
  }
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Conduits, ConduitConformance,
    ::testing::Combine(::testing::ValuesIn(caftest::kAllStacks),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      std::string s = caftest::to_string(std::get<0>(info.param));
      for (auto& c : s) {
        if (c == '-') c = '_';
      }
      const int loss = std::get<1>(info.param);
      s += loss > 0 ? "_loss" + std::to_string(loss) + "pct" : "_clean";
      return s;
    });

TEST_P(ConduitConformance, IdentityAndSegments) {
  Harness h = make(6);
  h.run([&] {
    Conduit& c = conduit(h);
    EXPECT_EQ(c.nranks(), 6);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 6);
    EXPECT_GT(c.segment_bytes(), 0u);
    for (int r = 0; r < 6; ++r) EXPECT_NE(c.segment(r), nullptr);
  });
}

TEST_P(ConduitConformance, CollectiveAllocationIsSymmetricAndAligned) {
  Harness h = make(5);
  std::vector<std::uint64_t> offs(5);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t a = c.allocate(48);
    const std::uint64_t b = c.allocate(8);
    offs[c.rank()] = a ^ (b << 24);
    EXPECT_EQ(a % 8, 0u);
    c.deallocate(b);
    c.deallocate(a);
  });
  for (int i = 1; i < 5; ++i) EXPECT_EQ(offs[i], offs[0]);
}

TEST_P(ConduitConformance, PutHasLocalCompletionSemantics) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(64);
    c.barrier();
    if (c.rank() == 0) {
      std::int64_t v = 1234;
      c.put(1, off, &v, sizeof v, /*nbi=*/false);
      v = 0;  // source reusable immediately
      c.quiet();
    }
    c.barrier();
    if (c.rank() == 1) {
      std::int64_t got = 0;
      std::memcpy(&got, c.segment(1) + off, sizeof got);
      EXPECT_EQ(got, 1234);
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, NbiPutsCompleteAtQuiet) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(1024);
    c.barrier();
    if (c.rank() == 0) {
      std::vector<int> v(16);
      for (int i = 0; i < 16; ++i) {
        v[i] = 100 + i;
        c.put(2, off + i * 64, &v[i], sizeof(int), /*nbi=*/true);
      }
      c.quiet();
    }
    c.barrier();
    if (c.rank() == 2) {
      for (int i = 0; i < 16; ++i) {
        int got = 0;
        std::memcpy(&got, c.segment(2) + off + i * 64, sizeof got);
        EXPECT_EQ(got, 100 + i);
      }
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, GetReadsCurrentRemoteState) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(8);
    const std::int64_t mine = 5000 + c.rank();
    std::memcpy(c.segment(c.rank()) + off, &mine, sizeof mine);
    c.barrier();
    std::int64_t got = 0;
    c.get(&got, (c.rank() + 1) % 4, off, sizeof got);
    EXPECT_EQ(got, 5000 + (c.rank() + 1) % 4);
    c.barrier();
  });
}

TEST_P(ConduitConformance, StridedPutScatter) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(1024);
    std::memset(c.segment(c.rank()) + off, 0, 1024);
    c.barrier();
    if (c.rank() == 0) {
      std::vector<int> src(10);
      std::iota(src.begin(), src.end(), 700);
      c.iput(3, off, /*dst_stride=*/5, src.data(), /*src_stride=*/1,
             sizeof(int), 10);
      c.quiet();
    }
    c.barrier();
    if (c.rank() == 3) {
      for (int i = 0; i < 10; ++i) {
        int got = 0;
        std::memcpy(&got, c.segment(3) + off + i * 5 * sizeof(int), sizeof got);
        EXPECT_EQ(got, 700 + i);
      }
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, StridedGetGather) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(1024);
    auto* base = c.segment(c.rank()) + off;
    for (int i = 0; i < 32; ++i) {
      const int v = c.rank() * 100 + i;
      std::memcpy(base + i * sizeof(int), &v, sizeof v);
    }
    c.barrier();
    if (c.rank() == 1) {
      std::vector<int> dst(8, -1);
      c.iget(dst.data(), 1, 2, off, /*src_stride=*/4, sizeof(int), 8);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], 200 + 4 * i);
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, AtomicsAreLinearizable) {
  Harness h = make(8);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(16);
    std::memset(c.segment(c.rank()) + off, 0, 16);
    c.barrier();
    // fadd: fetched values must be a permutation of partial sums.
    const std::int64_t fetched = c.amo(AmoOp::kFetchAdd, 0, off, 1);
    EXPECT_GE(fetched, 0);
    EXPECT_LT(fetched, 8);
    c.barrier();
    std::int64_t total = 0;
    std::memcpy(&total, c.segment(0) + off, sizeof total);
    EXPECT_EQ(total, 8);
    c.barrier();
    // cswap: exactly one winner from 0.
    static int winners;
    if (c.rank() == 0) winners = 0;
    c.barrier();
    if (c.amo(AmoOp::kCompareSwap, 0, off + 8, c.rank() + 1, 0) == 0) {
      ++winners;
    }
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(winners, 1);
    }
    // swap returns the previous value.
    if (c.rank() == 0) {
      const std::int64_t prev = c.amo(AmoOp::kSwap, 1, off, -9);
      std::int64_t now = 0;
      std::memcpy(&now, c.segment(1) + off, sizeof now);
      EXPECT_EQ(now, -9);
      (void)prev;
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, BitwiseAtomics) {
  Harness h = make(2);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(8);
    std::memset(c.segment(c.rank()) + off, 0, 8);
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(c.amo(AmoOp::kFetchOr, 1, off, 0b1100), 0);
      EXPECT_EQ(c.amo(AmoOp::kFetchAnd, 1, off, 0b0110), 0b1100);
      EXPECT_EQ(c.amo(AmoOp::kFetchXor, 1, off, 0b0011), 0b0100);
      std::int64_t v = 0;
      std::memcpy(&v, c.segment(1) + off, sizeof v);
      EXPECT_EQ(v, 0b0111);
    }
    c.barrier();
  });
}

// A compare-and-swap whose condition does not hold returns the old value
// and leaves the word as it was, whether a NIC, an AM handler or ARMCI's
// mutex emulation (which writes the old value back) runs it.
TEST_P(ConduitConformance, FailingCompareAndSwapLeavesTheWord) {
  Harness h = make(2);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(8);
    const std::int64_t start = 41;
    std::memcpy(c.segment(c.rank()) + off, &start, sizeof start);
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(c.amo(AmoOp::kCompareSwap, 1, off, /*operand=*/7,
                      /*cond=*/40),
                41);
      std::int64_t v = 0;
      c.get(&v, 1, off, sizeof v);
      EXPECT_EQ(v, 41);
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, WaitUntilWakesOnEveryComparison) {
  Harness h = make(2);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(8 * 6);
    std::memset(c.segment(c.rank()) + off, 0, 8 * 6);
    c.barrier();
    struct Case {
      Cmp cmp;
      std::int64_t arg;
      std::int64_t write;
    };
    const Case cases[] = {
        {Cmp::kEq, 7, 7},   {Cmp::kNe, 0, 3},  {Cmp::kGt, 10, 11},
        {Cmp::kGe, 5, 5},   {Cmp::kLt, 0, -2}, {Cmp::kLe, -5, -6},
    };
    if (c.rank() == 1) {
      for (int i = 0; i < 6; ++i) {
        h.engine().advance(5'000);
        c.put(0, off + i * 8, &cases[i].write, 8, /*nbi=*/false);
        c.quiet();
      }
    } else {
      for (int i = 0; i < 6; ++i) {
        c.wait_until(off + i * 8, cases[i].cmp, cases[i].arg);
        std::int64_t v = 0;
        std::memcpy(&v, c.segment(0) + off + i * 8, sizeof v);
        EXPECT_EQ(v, cases[i].write) << "case " << i;
      }
    }
    c.barrier();
  });
}

TEST_P(ConduitConformance, BarrierIsAFullFence) {
  Harness h = make(6);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(8);
    std::memset(c.segment(c.rank()) + off, 0, 8);
    c.barrier();
    h.engine().advance(500 * (c.rank() + 1));
    c.barrier();
    EXPECT_GE(h.engine().now(), 3'000);
  });
}

// put_scatter: every record's bytes land at its destination offset after a
// quiet, regardless of how the conduit maps the scatter (hardware scatter,
// ARMCI vector put, MPI datatype, or a loop of nbi puts).
TEST_P(ConduitConformance, PutScatterDeliversAllRecords) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(1024);
    std::memset(c.segment(c.rank()) + off, 0, 1024);
    c.barrier();
    if (c.rank() == 0) {
      constexpr int kRecs = 16;
      std::int64_t vals[kRecs];
      fabric::ScatterRec recs[kRecs];
      for (int i = 0; i < kRecs; ++i) {
        vals[i] = 1000 + i;
        recs[i] = {off + static_cast<std::uint64_t>(i) * 32, 8,
                   static_cast<std::uint32_t>(i) * 8};
      }
      c.put_scatter(1, recs, kRecs, vals, sizeof vals);
      EXPECT_TRUE(c.pending(1));
      c.quiet();
      EXPECT_FALSE(c.pending(1));
      for (int i = 0; i < kRecs; ++i) {
        std::int64_t g = 0;
        c.get(&g, 1, off + static_cast<std::uint64_t>(i) * 32, 8);
        EXPECT_EQ(g, 1000 + i) << "record " << i;
      }
    }
    c.barrier();
    if (c.rank() == 1) {
      // The gaps between records stayed untouched.
      for (int i = 0; i < 16; ++i) {
        std::int64_t gap = -1;
        std::memcpy(&gap, c.segment(1) + off +
                              static_cast<std::uint64_t>(i) * 32 + 8, 8);
        EXPECT_EQ(gap, 0) << "gap after record " << i;
      }
    }
    c.barrier();
  });
}

// The outstanding-op tracker: quiet() with a clean tracker is elided (no
// transport fence), and puts mark exactly their target dirty.
TEST_P(ConduitConformance, QuietIsElidedWhenNoOpsAreInFlight) {
  Harness h = make(4);
  h.run([&] {
    Conduit& c = conduit(h);
    const std::uint64_t off = c.allocate(64);
    c.barrier();
    if (c.rank() == 0) {
      const std::uint64_t elided0 =
          obs::registry().value(0, "rma.quiet_elided");
      c.quiet();
      c.quiet();
      EXPECT_EQ(obs::registry().value(0, "rma.quiet_elided"), elided0 + 2);
      std::int64_t v = 5;
      c.put(2, off, &v, sizeof v, /*nbi=*/true);
      EXPECT_TRUE(c.pending(2));
      EXPECT_FALSE(c.pending(1));
      c.quiet();  // real fence: tracker dirty
      EXPECT_EQ(obs::registry().value(0, "rma.quiet_elided"), elided0 + 2);
      EXPECT_FALSE(c.pending_any());
    }
    c.barrier();
  });
}

// The tracker at scale: 4096 images, image 0 puts to every target, then to
// a sparse subset. pending() must be exact for every target, one quiet()
// must clear all of them, and the next quiet() is elided. The tracker lives
// in the Conduit base, so one conduit covers all of them.
TEST(ConduitTracker, PendingIsExactForDenseAndSparseTargetsAt4096Images) {
  constexpr int kImages = 4096;
  Harness h(Stack::kShmemCray, kImages, {}, 256 * 1024);
  h.run(
      [&] {
        Conduit& c = conduit(h);
        const std::uint64_t off = c.allocate(64);
        if (c.rank() == 0) {
          auto& reg = obs::registry();
          auto check_pending = [&](const std::vector<bool>& want) {
            int wrong = 0;
            for (int t = 0; t < kImages; ++t) {
              if (c.pending(t) != want[static_cast<std::size_t>(t)]) ++wrong;
            }
            EXPECT_EQ(wrong, 0);
          };
          auto quiet_twice = [&] {
            const std::uint64_t elided0 = reg.value(0, "rma.quiet_elided");
            const std::uint64_t calls0 = reg.value(0, "rma.quiet_calls");
            c.quiet();  // real fence
            EXPECT_EQ(reg.value(0, "rma.quiet_elided"), elided0);
            EXPECT_FALSE(c.pending_any());
            // The dirty set's table is freed, not kept at its peak size.
            EXPECT_LE(c.tracker_buckets(), Conduit::kTrackerKeptBuckets);
            check_pending(std::vector<bool>(kImages, false));
            c.quiet();  // nothing in flight: elided
            EXPECT_EQ(reg.value(0, "rma.quiet_elided"), elided0 + 1);
            EXPECT_EQ(reg.value(0, "rma.quiet_calls"), calls0 + 2);
          };

          const std::int64_t v = 7;
          for (int t = 0; t < kImages; ++t) {
            c.put(t, off, &v, sizeof v, /*nbi=*/true);
          }
          EXPECT_TRUE(c.pending_any());
          EXPECT_GE(c.tracker_buckets(), static_cast<std::size_t>(kImages));
          check_pending(std::vector<bool>(kImages, true));
          quiet_twice();

          std::vector<bool> want(kImages, false);
          for (int t : {1, 3, 17, 64, 1000, 2048, 4095}) {
            c.put(t, off, &v, sizeof v, /*nbi=*/true);
            c.put(t, off, &v, sizeof v, /*nbi=*/true);  // dirty once
            want[static_cast<std::size_t>(t)] = true;
          }
          check_pending(want);
          quiet_twice();
        }
        c.barrier();
      },
      /*auto_init=*/false);
}

// Exact work counters of the conduit layer: on every conduit, four images
// on two nodes each run a fixed script against a same-node and an
// other-node peer: a blocking and an nbi put, a get, a strided put and get,
// all six AMOs and one compare-and-swap that fails. The event and switch
// counts and the final clock are the simulated schedule and must never
// move; the values were measured before the conduits shared one base over
// their fabric::Domain.
struct ConduitCase {
  const char* name;
  Stack stack;
  std::uint64_t events;
  std::uint64_t switches;
  sim::Time end;
};

// Prints a case by its name: gtest's default byte dump would put the
// address of `name` into the test name, which moves run to run.
void PrintTo(const ConduitCase& c, std::ostream* os) { *os << c.name; }

class ConduitWorkCounters : public ::testing::TestWithParam<ConduitCase> {};

constexpr ConduitCase kConduitCases[] = {
    {"Shmem", Stack::kShmemCray, 377, 136, 31'310},
    {"Gasnet", Stack::kGasnet, 664, 288, 65'927},
    {"Armci", Stack::kArmci, 1'209, 480, 160'011},
    {"Mpi3", Stack::kMpi3, 656, 248, 103'571},
};

INSTANTIATE_TEST_SUITE_P(
    Conduits, ConduitWorkCounters, ::testing::ValuesIn(kConduitCases),
    [](const ::testing::TestParamInfo<ConduitCase>& info) {
      return std::string(info.param.name);
    });

TEST_P(ConduitWorkCounters, AreExact) {
  constexpr int kImages = 4;
  const ConduitCase& cc = GetParam();
  Harness h(cc.stack, kImages, {}, 2 << 20, {}, /*cores_per_node=*/2);
  sim::Time end = 0;
  h.run(
      [&] {
        Conduit& c = conduit(h);
        c.post_init();  // ARMCI's emulation mutex; a no-op elsewhere
        const std::uint64_t off = c.allocate(kImages * 512);
        const int me = c.rank();
        const std::uint64_t mine = off + static_cast<std::uint64_t>(me) * 512;
        std::vector<std::int64_t> src(16);
        std::iota(src.begin(), src.end(), me * 100);
        std::vector<std::int64_t> back(8, -1);
        c.barrier();
        for (const int t : {me ^ 1, (me + 2) % kImages}) {
          std::int64_t v = 7 + me;
          c.put(t, mine, &v, sizeof v, /*nbi=*/false);
          c.put(t, mine + 64, src.data(), 64, /*nbi=*/true);
          c.quiet();
          v = 0;
          c.get(&v, t, mine, sizeof v);
          EXPECT_EQ(v, 7 + me);
          c.iput(t, mine + 128, /*dst_stride=*/2, src.data(), /*src_stride=*/1,
                 sizeof(std::int64_t), 8);
          c.quiet();
          c.iget(back.data(), 1, t, mine + 128, /*src_stride=*/2,
                 sizeof(std::int64_t), 8);
          EXPECT_EQ(back[7], src[7]);
          const std::uint64_t w = mine + 384;
          EXPECT_EQ(c.amo(AmoOp::kSwap, t, w, 5), 0);
          EXPECT_EQ(c.amo(AmoOp::kCompareSwap, t, w, 12, 5), 5);
          EXPECT_EQ(c.amo(AmoOp::kFetchAdd, t, w, 3), 12);
          EXPECT_EQ(c.amo(AmoOp::kFetchAnd, t, w, 6), 15);
          EXPECT_EQ(c.amo(AmoOp::kFetchOr, t, w, 9), 6);
          EXPECT_EQ(c.amo(AmoOp::kFetchXor, t, w, 5), 15);
          // Fails: the word is 10.
          EXPECT_EQ(c.amo(AmoOp::kCompareSwap, t, w, 1, 99), 10);
          c.get(&v, t, w, sizeof v);
          EXPECT_EQ(v, 10);
        }
        c.barrier();
        end = std::max(end, h.engine().now());
      },
      /*auto_init=*/false);
  const sim::EngineStats st = h.engine().stats();
  EXPECT_EQ(st.events, cc.events);
  EXPECT_EQ(st.switches, cc.switches);
  EXPECT_EQ(end, cc.end);
}
