// Integration tests for fabric::Domain: data actually moves between PE
// segments at the right virtual times, with correct completion semantics.
#include "fabric/domain.hpp"

#include <gtest/gtest.h>

#include "fabric/dmapp.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "net/fault.hpp"
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

TEST(Domain, GetReplyToAKilledReaderIsDropped) {
  // PE 0 blocks in a get into a buffer on its own stack and is killed
  // before the reply. Its stack goes back to the pool, and the fiber PE 1
  // spawns at the kill takes it (the pool reuses the stack it got last);
  // the reply must not land there.
  World w;
  std::memset(w.domain.segment(16), 0xAB, 4096);
  w.engine.spawn(0, [&] {
    char buf[4096];
    w.domain.get(buf, 16, 0, sizeof buf);
  });
  bool intact = false;
  w.engine.schedule(100, [&] {
    w.engine.kill_pe(0);
    w.engine.spawn(1, [&] {
      char mine[8192];
      std::memset(mine, 0x11, sizeof mine);
      w.engine.advance(1_ms);
      intact = std::all_of(mine, mine + sizeof mine,
                           [](char c) { return c == 0x11; });
    });
  });
  w.engine.run();
  EXPECT_TRUE(intact);
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
    const ScatterRec past_end{4090, 8, 0};
    const char payload[8] = {};
    EXPECT_THROW(w.domain.put_scatter(16, &past_end, 1, payload, 8),
                 std::out_of_range);
    EXPECT_THROW(w.domain.amo(AmoOp::kFetchAdd, 16, 4092, 1),
                 std::out_of_range);
  });
  w.engine.run();
  // The hardware-strided pair: the last of 4 elements, 2 apart, would end
  // 8 bytes past the segment.
  World hw(32, net::Machine::kXC30, net::Library::kShmemCray, 4096);
  hw.engine.spawn(0, [&] {
    long v[4] = {};
    EXPECT_THROW(hw.domain.iput_hw(16, 4048, 2, v, 1, sizeof(long), 4),
                 std::out_of_range);
    EXPECT_THROW(hw.domain.iget_hw(v, 1, 16, 4048, 2, sizeof(long), 4),
                 std::out_of_range);
  });
  hw.engine.run();
}

// The one AMO rule: every op's stored value over the same old word, and a
// compare-and-swap that stores only when the condition holds.
TEST(ApplyAmo, StoresEachOpsValue) {
  constexpr std::uint64_t kOld = 0b1100;
  struct Row {
    AmoOp op;
    std::uint64_t operand;
    std::uint64_t cond;
    std::optional<std::uint64_t> stored;
  };
  const Row rows[] = {
      {AmoOp::kSwap, 7, 0, 7},
      {AmoOp::kCompareSwap, 7, kOld, 7},                 // condition holds
      {AmoOp::kCompareSwap, 7, kOld + 1, std::nullopt},  // fails: no store
      {AmoOp::kFetchAdd, 5, 0, kOld + 5},
      {AmoOp::kFetchAdd, ~std::uint64_t{0}, 0, kOld - 1},  // adds -1
      {AmoOp::kFetchAnd, 0b0110, 0, 0b0100},
      {AmoOp::kFetchOr, 0b0011, 0, 0b1111},
      {AmoOp::kFetchXor, 0b0110, 0, 0b1010},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(apply_amo(r.op, kOld, r.operand, r.cond), r.stored)
        << "op " << static_cast<int>(r.op) << " operand " << r.operand;
  }
  static_assert(apply_amo(AmoOp::kFetchAdd, 1, 2, 0) == 3u);
}

// Exact work counters of every Domain operation: a fixed script of put,
// nbi put, put_scatter, iput_hw, get, iget_hw and amo, run by one PE on each
// of two nodes against a same-node and an other-node peer, then against a
// dead peer on each route. The event and switch counts and the final clock
// are the simulated schedule and must never move; the values were measured
// before the operations shared one route, enqueue and read step.
struct OpsCase {
  const char* name;
  net::Machine machine;
  net::Library lib;
  bool node_transport;
  std::uint64_t events;
  std::uint64_t switches;
  sim::Time end;
  int failures;  ///< PeerFailedErrors the dead-peer operations raised
};

// Prints a case by its name: gtest's default byte dump would put the
// address of `name` into the test name, which moves run to run.
void PrintTo(const OpsCase& c, std::ostream* os) { *os << c.name; }

class DomainWorkCounters : public ::testing::TestWithParam<OpsCase> {};

INSTANTIATE_TEST_SUITE_P(
    Profiles, DomainWorkCounters,
    ::testing::Values(
        OpsCase{"XC30", net::Machine::kXC30, net::Library::kShmemCray, false,
                151, 62, 6'462'867, 12},
        OpsCase{"XC30Node", net::Machine::kXC30, net::Library::kShmemCray,
                true, 137, 62, 6'459'397, 24},
        OpsCase{"Stampede", net::Machine::kStampede,
                net::Library::kShmemMvapich, false, 113, 46, 5'066'532, 8},
        OpsCase{"StampedeNode", net::Machine::kStampede,
                net::Library::kShmemMvapich, true, 101, 46, 5'063'377, 16}),
    [](const ::testing::TestParamInfo<OpsCase>& info) {
      return std::string(info.param.name);
    });

TEST_P(DomainWorkCounters, AreExact) {
  // Two nodes of three PEs: {0, 1, 2} and {3, 4, 5}. PEs 0 and 3 run the
  // script; PEs 2 and 5 die at 1 us, before anyone reaches them.
  constexpr int kPerNode = 3;
  const OpsCase& c = GetParam();
  net::MachineProfile mp = net::machine_profile(c.machine);
  mp.cores_per_node = kPerNode;
  sim::Engine engine{64 * 1024};
  net::Fabric fabric(mp, 2 * kPerNode);
  net::FaultPlan plan;
  plan.with_seed(0xD0).kill_pe(2, 1_us).kill_pe(5, 1_us);
  net::FaultInjector injector(plan, 2 * kPerNode, kPerNode);
  fabric.set_fault_injector(&injector);
  injector.arm(engine);
  Domain d(engine, fabric, net::sw_profile(c.lib, c.machine), 64 << 10);
  net::NodeTransportOptions node;
  node.enabled = c.node_transport;
  d.enable_node_transport(node);
  const bool hw = d.sw().hw_strided;

  int failures = 0;
  sim::Time end = 0;
  for (const int me : {0, kPerNode}) {
    engine.spawn(me, [&, me] {
      const std::uint64_t base = static_cast<std::uint64_t>(me) * 8192;
      std::vector<long> buf(512);
      std::iota(buf.begin(), buf.end(), me * 1000L);
      std::vector<long> back(512);
      const ScatterRec recs[3] = {
          {base + 4200, 8, 0}, {base + 4300, 16, 8}, {base + 4400, 600, 24}};
      const int near = me + 1;
      const int far = (me + kPerNode) % (2 * kPerNode);
      for (const int t : {near, far}) {
        long v = me * 100 + t;
        d.put(t, base, &v, sizeof v);
        d.put(t, base + 64, buf.data(), 4096, /*pipelined=*/true);
        d.put_scatter(t, recs, 3, buf.data(), 624);
        if (hw) d.iput_hw(t, base + 5000, 2, buf.data(), 1, sizeof(long), 16);
        d.quiet();
        d.get(&v, t, base, sizeof v);
        EXPECT_EQ(v, me * 100 + t);
        d.get(back.data(), t, base + 64, 4096);
        EXPECT_EQ(back[511], buf[511]);
        if (hw) {
          d.iget_hw(back.data(), 1, t, base + 5000, 2, sizeof(long), 16);
          EXPECT_EQ(back[15], buf[15]);
        }
        EXPECT_EQ(d.amo(AmoOp::kFetchAdd, t, base + 6000, 1), 0u);
      }
      const auto count_failure = [&](auto&& op) {
        try {
          op();
        } catch (const PeerFailedError&) {
          ++failures;
        }
      };
      for (const int t : {me + 2, (me + 2 * kPerNode - 1) % (2 * kPerNode)}) {
        long v = 0;
        count_failure([&] { d.put(t, base, &v, sizeof v); });
        count_failure([&] { d.put_scatter(t, recs, 3, buf.data(), 624); });
        if (hw) {
          count_failure([&] {
            d.iput_hw(t, base + 5000, 2, buf.data(), 1, sizeof(long), 16);
          });
        }
        count_failure([&] { d.get(&v, t, base, sizeof v); });
        if (hw) {
          count_failure([&] {
            d.iget_hw(back.data(), 1, t, base + 5000, 2, sizeof(long), 16);
          });
        }
        count_failure([&] { d.amo(AmoOp::kSwap, t, base + 6000, 1); });
      }
      end = std::max(end, engine.now());
    });
  }
  engine.run();
  const sim::EngineStats st = engine.stats();
  EXPECT_EQ(st.events, c.events);
  EXPECT_EQ(st.switches, c.switches);
  EXPECT_EQ(end, c.end);
  EXPECT_EQ(failures, c.failures);
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
