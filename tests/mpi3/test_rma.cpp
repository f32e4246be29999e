// Tests for the MPI-3 RMA subset used in the Figure 2-3 conduit comparison.
#include "mpi3/rma.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "net/profiles.hpp"

using namespace mpi3;

namespace {

struct Harness {
  sim::Engine engine{64 * 1024};
  net::Fabric fabric;
  Window win;

  explicit Harness(int ranks, net::Machine m = net::Machine::kStampede)
      : fabric(net::machine_profile(m), ranks),
        win(engine, fabric, net::sw_profile(net::Library::kMpi3, m), 1 << 20) {}

  void run(std::function<void()> main) {
    win.launch(std::move(main));
    engine.run();
  }
};

constexpr std::uint64_t kOff = fabric::kBarrierBytes + 64;

}  // namespace

TEST(Mpi3, PutThenFlushDelivers) {
  Harness h(32);
  h.run([&] {
    if (h.win.rank() == 0) {
      const double v = 2.718;
      h.win.put(&v, sizeof v, 16, kOff);
      h.win.flush_all();
      double check = 0;
      std::memcpy(&check, h.win.base(16) + kOff, sizeof check);
      EXPECT_DOUBLE_EQ(check, 2.718);
    }
    h.win.barrier();
  });
}

TEST(Mpi3, GetRoundTrip) {
  Harness h(32);
  h.run([&] {
    if (h.win.rank() == 16) {
      const int v = 321;
      std::memcpy(h.win.base(16) + kOff, &v, sizeof v);
    }
    h.win.barrier();
    if (h.win.rank() == 0) {
      int got = 0;
      h.win.get(&got, sizeof got, 16, kOff);
      EXPECT_EQ(got, 321);
    }
  });
}

TEST(Mpi3, FetchAndOpAccumulates) {
  Harness h(16);
  h.run([&] {
    (void)h.win.fetch_and_op(fabric::AmoOp::kFetchAdd, 2, 0, kOff);
    h.win.barrier();
    if (h.win.rank() == 0) {
      std::int64_t v = 0;
      std::memcpy(&v, h.win.base(0) + kOff, sizeof v);
      EXPECT_EQ(v, 32);
    }
  });
}

TEST(Mpi3, CompareAndSwapSingleWinner) {
  Harness h(16);
  int winners = 0;
  h.run([&] {
    if (h.win.compare_and_swap(0, h.win.rank() + 1, 0, kOff) == 0) ++winners;
    h.win.barrier();
  });
  EXPECT_EQ(winners, 1);
}

TEST(Mpi3, SmallPutSlowerThanShmem) {
  // The Figure 2 headline: MPI-3 put latency exceeds SHMEM's at small sizes.
  auto one_put_latency = [](net::Library lib) {
    net::Fabric f(net::machine_profile(net::Machine::kStampede), 32);
    const auto sw = net::sw_profile(lib, net::Machine::kStampede);
    return f.submit_put(0, 16, 8, sw, 0).delivered;
  };
  EXPECT_GT(one_put_latency(net::Library::kMpi3),
            one_put_latency(net::Library::kShmemMvapich));
}

TEST(Mpi3, WaitWakesOnPutInsideWatchedWord) {
  // A put that begins inside the watched word (its upper half) changes the
  // word's value, so it must wake the waiter.
  Harness h(32);
  h.run([&] {
    if (h.win.rank() == 0) {
      h.win.wait_until_local(kOff, fabric::Cmp::kNe, 0);
      std::int64_t v = 0;
      std::memcpy(&v, h.win.base(0) + kOff, sizeof v);
      EXPECT_EQ(v, std::int64_t{1} << 32);
    } else if (h.win.rank() == 16) {
      const std::int32_t one = 1;
      h.win.put(&one, sizeof one, 0, kOff + 4);
      h.win.flush_all();
    }
    h.win.barrier();
  });
}
