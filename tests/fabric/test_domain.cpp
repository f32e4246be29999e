// Integration tests for fabric::Domain: data actually moves between PE
// segments at the right virtual times, with correct completion semantics.
#include "fabric/domain.hpp"

#include <gtest/gtest.h>

#include "fabric/dmapp.hpp"
#include "fabric/verbs.hpp"

#include <cstring>
#include <numeric>

#include "net/profiles.hpp"

using namespace fabric;
using namespace sim::literals;

namespace {

struct World {
  sim::Engine engine;
  net::Fabric fabric;
  Domain domain;

  explicit World(int npes = 32,
                 net::Machine m = net::Machine::kStampede,
                 net::Library lib = net::Library::kShmemMvapich,
                 std::size_t seg = 1 << 20)
      : fabric(net::machine_profile(m), npes),
        domain(engine, fabric, net::sw_profile(lib, m), seg) {}
};

}  // namespace

TEST(Domain, PutMovesBytes) {
  World w;
  w.engine.spawn(0, [&] {
    int v = 424242;
    w.domain.put(16, 64, &v, sizeof v);
    w.domain.quiet();
  });
  w.engine.run();
  int got = 0;
  std::memcpy(&got, w.domain.segment(16) + 64, sizeof got);
  EXPECT_EQ(got, 424242);
}

TEST(Domain, PutCapturesSourceAtIssue) {
  // Local completion: mutating the source after put() returns must not
  // affect the delivered data (paper Figure 4 semantics).
  World w;
  w.engine.spawn(0, [&] {
    int v = 3;
    w.domain.put(16, 0, &v, sizeof v);
    v = 0;  // reuse immediately
    w.domain.quiet();
  });
  w.engine.run();
  int got = 0;
  std::memcpy(&got, w.domain.segment(16), sizeof got);
  EXPECT_EQ(got, 3);
}

TEST(Domain, DeliveryHappensAtModelTime) {
  World w;
  sim::Time t_after_quiet = -1;
  w.engine.spawn(0, [&] {
    int v = 7;
    w.domain.put(16, 0, &v, sizeof v);
    // Before quiet, virtual time is only the local completion.
    EXPECT_EQ(w.engine.now(), w.domain.sw().put_overhead);
    w.domain.quiet();
    t_after_quiet = w.engine.now();
  });
  w.engine.run();
  const auto& mp = w.fabric.profile();
  EXPECT_GE(t_after_quiet, w.domain.sw().put_overhead + mp.hw_latency);
}

TEST(Domain, GetReadsRemoteData) {
  World w;
  int got = 0;
  // PE 16 initializes its own segment locally at t=0 (plain host store);
  // PE 0 gets it.
  std::memcpy(w.domain.segment(16) + 128, "\xef\xbe\xad\xde", 4);
  w.engine.spawn(0, [&] {
    w.domain.get(&got, 16, 128, sizeof got);
    EXPECT_GT(w.engine.now(), 0);
  });
  w.engine.run();
  EXPECT_EQ(got, static_cast<int>(0xdeadbeef));
}

TEST(Domain, GetSnapshotsAtServiceTime) {
  // A put delivered before the get's service time must be visible; the
  // event ordering of the DES guarantees it.
  World w;
  int got = 0;
  w.engine.spawn(0, [&] {
    int v = 55;
    w.domain.put(16, 0, &v, sizeof v);
    w.domain.quiet();  // ensure delivery before the get below
    w.domain.get(&got, 16, 0, sizeof got);
  });
  w.engine.run();
  EXPECT_EQ(got, 55);
}

TEST(Domain, AmoFetchAddAccumulatesAcrossPes) {
  World w(48, net::Machine::kTitan, net::Library::kShmemCray);
  std::vector<std::uint64_t> fetched(48, ~0ull);
  for (int pe = 0; pe < 48; ++pe) {
    w.engine.spawn(pe, [&, pe] {
      fetched[pe] = w.domain.amo(AmoOp::kFetchAdd, 0, 0, 1);
    });
  }
  w.engine.run();
  std::uint64_t final = 0;
  std::memcpy(&final, w.domain.segment(0), sizeof final);
  EXPECT_EQ(final, 48u);
  // Fetched values are a permutation of 0..47 (atomicity).
  std::sort(fetched.begin(), fetched.end());
  for (std::uint64_t i = 0; i < 48; ++i) EXPECT_EQ(fetched[i], i);
}

TEST(Domain, AmoCompareSwapOnlyOneWinner) {
  World w(32, net::Machine::kTitan, net::Library::kShmemCray);
  int winners = 0;
  for (int pe = 0; pe < 32; ++pe) {
    w.engine.spawn(pe, [&, pe] {
      const std::uint64_t old =
          w.domain.amo(AmoOp::kCompareSwap, 0, 8, pe + 1, 0);
      if (old == 0) ++winners;
    });
  }
  w.engine.run();
  EXPECT_EQ(winners, 1);
}

TEST(Domain, AmoBitwiseOps) {
  World w;
  w.engine.spawn(0, [&] {
    w.domain.amo(AmoOp::kFetchOr, 16, 0, 0b1010);
    w.domain.amo(AmoOp::kFetchAnd, 16, 0, 0b0110);
    const std::uint64_t before = w.domain.amo(AmoOp::kFetchXor, 16, 0, 0b0011);
    EXPECT_EQ(before, 0b0010u);
  });
  w.engine.run();
  std::uint64_t final = 0;
  std::memcpy(&final, w.domain.segment(16), sizeof final);
  EXPECT_EQ(final, 0b0001u);
}

TEST(Domain, WaitUntilWakesOnDelivery) {
  World w;
  sim::Time put_delivered = 0, amo_issued = 0, amo_returned = 0;
  sim::Time woke_put = 0, woke_amo = 0, woke_poke = 0, woke_inside = 0;
  w.engine.spawn(16, [&] {  // woken by a put
    w.domain.wait_until(0, Cmp::kEq, 11, "test_wait");
    woke_put = w.engine.now();
  });
  w.engine.spawn(17, [&] {  // woken by an AMO store at the target
    w.domain.wait_until(0, Cmp::kGe, 5, "test_wait");
    woke_amo = w.engine.now();
  });
  w.engine.spawn(18, [&] {  // woken by a scheduler-context poke
    w.domain.wait_until(0, Cmp::kNe, 0, "test_wait");
    woke_poke = w.engine.now();
  });
  w.engine.spawn(19, [&] {  // word [8, 16): neighbours must not wake it
    w.domain.wait_until(8, Cmp::kEq, 7, "test_wait");
    woke_inside = w.engine.now();
  });
  w.engine.spawn(0, [&] {
    const std::int64_t v = 11;
    put_delivered = w.domain.put(16, 0, &v, sizeof v).delivered;
    amo_issued = w.engine.now();
    w.domain.amo(AmoOp::kFetchAdd, 17, 0, 5);
    amo_returned = w.engine.now();
    // Writes to the words on either side of PE 19's watched word.
    w.domain.put(19, 0, &v, sizeof v);
    w.domain.put(19, 16, &v, sizeof v);
    w.domain.quiet();
  });
  // A store that bypasses the Domain satisfies PE 19's condition without
  // waking it: only a later write overlapping the word may wake it.
  w.engine.schedule(1_us, [&] {
    const std::int64_t seven = 7;
    std::memcpy(w.domain.segment(19) + 8, &seven, sizeof seven);
  });
  w.engine.schedule(30_us, [&] {
    const std::int64_t one = 1;
    w.domain.poke(18, 0, &one, sizeof one, w.engine.sim_now());
  });
  // Four bytes starting inside the word (its upper half, still 0).
  w.engine.schedule(50_us, [&] {
    const std::int32_t zero = 0;
    w.domain.poke(19, 12, &zero, sizeof zero, w.engine.sim_now());
  });
  w.engine.run();
  EXPECT_GT(put_delivered, 0);
  EXPECT_EQ(woke_put, put_delivered);
  EXPECT_GT(woke_amo, amo_issued);  // at the target's RMW, not the reply
  EXPECT_LT(woke_amo, amo_returned);
  EXPECT_EQ(woke_poke, 30_us);
  EXPECT_EQ(woke_inside, 50_us);
}

TEST(Domain, HwStridedPutScattersCorrectly) {
  World w(32, net::Machine::kXC30, net::Library::kShmemCray);
  w.engine.spawn(0, [&] {
    std::vector<int> src(10);
    std::iota(src.begin(), src.end(), 100);
    // Source stride 1 element, destination stride 3 elements.
    w.domain.iput_hw(16, 0, 3, src.data(), 1, sizeof(int), 10);
    w.domain.quiet();
  });
  w.engine.run();
  for (int i = 0; i < 10; ++i) {
    int got = 0;
    std::memcpy(&got, w.domain.segment(16) + i * 3 * sizeof(int), sizeof got);
    EXPECT_EQ(got, 100 + i);
  }
}

TEST(Domain, HwStridedGetGathersCorrectly) {
  World w(32, net::Machine::kXC30, net::Library::kShmemCray);
  for (int i = 0; i < 8; ++i) {
    const int v = 7 * i;
    std::memcpy(w.domain.segment(16) + i * 2 * sizeof(int), &v, sizeof v);
  }
  std::vector<int> dst(8, -1);
  w.engine.spawn(0, [&] {
    w.domain.iget_hw(dst.data(), 1, 16, 0, 2, sizeof(int), 8);
  });
  w.engine.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], 7 * i);
}

TEST(Domain, QuietWaitsForAllOutstanding) {
  World w;
  w.engine.spawn(0, [&] {
    std::vector<char> buf(1 << 16, 'x');
    sim::Time last_local = 0;
    for (int i = 0; i < 8; ++i) {
      w.domain.put(16 + i, 0, buf.data(), buf.size(), /*pipelined=*/true);
      last_local = w.engine.now();
    }
    w.domain.quiet();
    EXPECT_GT(w.engine.now(), last_local);
    EXPECT_GE(w.engine.now(), w.domain.outstanding(0));
  });
  w.engine.run();
}

TEST(Domain, OutOfRangeAccessThrows) {
  World w(32, net::Machine::kStampede, net::Library::kShmemMvapich, 4096);
  w.engine.spawn(0, [&] {
    char c = 0;
    EXPECT_THROW(w.domain.put(16, 4096, &c, 1), std::out_of_range);
    EXPECT_THROW(w.domain.get(&c, 16, 5000, 1), std::out_of_range);
  });
  w.engine.run();
}

TEST(Verbs, ApiRoundTrip) {
  sim::Engine engine;
  net::Fabric fab(net::machine_profile(net::Machine::kStampede), 32);
  fabric::verbs::Hca hca(engine, fab, 1 << 16);
  engine.spawn(0, [&] {
    std::uint64_t v = 99;
    hca.rdma_write(16, 0, &v, sizeof v);
    hca.poll_cq_drain();
    std::uint64_t r = 0;
    hca.rdma_read(&r, 16, 0, sizeof r);
    EXPECT_EQ(r, 99u);
    EXPECT_EQ(hca.atomic_fetch_add(16, 0, 1), 99u);
    EXPECT_EQ(hca.atomic_cmp_swap(16, 0, 100, 7), 100u);
    hca.rdma_read(&r, 16, 0, sizeof r);
    EXPECT_EQ(r, 7u);
  });
  engine.run();
}

TEST(Dmapp, ApiRoundTripWithStrided) {
  sim::Engine engine;
  net::Fabric fab(net::machine_profile(net::Machine::kXC30), 32);
  fabric::dmapp::Context ctx(engine, fab, 1 << 16);
  engine.spawn(0, [&] {
    std::vector<long> src{1, 2, 3, 4, 5};
    ctx.iput(16, 0, 2, src.data(), 1, sizeof(long), src.size());
    ctx.gsync_wait();
    std::vector<long> back(5, 0);
    ctx.iget(back.data(), 1, 16, 0, 2, sizeof(long), 5);
    EXPECT_EQ(back, src);
    EXPECT_EQ(ctx.afadd(16, 8 * 9, 5), 0u);
    EXPECT_EQ(ctx.aswap(16, 8 * 9, 11), 5u);
    EXPECT_EQ(ctx.acswap(16, 8 * 9, 11, 13), 11u);
    EXPECT_EQ(ctx.afax(fabric::AmoOp::kFetchAnd, 16, 8 * 9, 0xF), 13u);
  });
  engine.run();
}
