// Tests for the §VII shmem_ptr future-work feature: intra-node co-indexed
// accesses as direct load/store, correctness and cost characteristics.
#include <gtest/gtest.h>

#include "caf/shmem_conduit.hpp"
#include "caf_test_util.hpp"
#include "obs/obs.hpp"

using namespace caf;
using caftest::Harness;
using caftest::Stack;

namespace {

ShmemConduit& conduit_of(Harness& h) {
  return dynamic_cast<ShmemConduit&>(h.rt().conduit());
}

}  // namespace

TEST(ShmemPtr, IntraNodePutGetCorrect) {
  Harness h(Stack::kShmemCray, 20);
  h.run([&] {
    conduit_of(h).set_intra_node_direct(true);
    auto x = make_coarray<int>(h.rt(), {8});
    for (int i = 1; i <= 8; ++i) x(i) = h.rt().this_image() * 100 + i;
    h.rt().sync_all();
    // Image 1 and 2 share node 0; 17..20 live on node 1.
    if (h.rt().this_image() == 1) {
      x.put_scalar(2, {1}, -5);            // intra-node direct store
      EXPECT_EQ(x.get_scalar(2, {1}), -5); // intra-node direct load
      EXPECT_EQ(x.get_scalar(17, {3}), 1703);  // inter-node: library path
      x.put_scalar(17, {2}, -7);
      EXPECT_EQ(x.get_scalar(17, {2}), -7);
    }
    h.rt().sync_all();
  });
}

TEST(ShmemPtr, DirectPathWakesWaiters) {
  // A wait_until spinning image must still wake when the writer uses the
  // direct store path (poke wakes Domain waiters).
  Harness h(Stack::kShmemCray, 2);
  h.run([&] {
    conduit_of(h).set_intra_node_direct(true);
    auto flag = make_coarray<std::int64_t>(h.rt(), {1});
    flag(1) = 0;
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      h.engine().advance(10'000);
      flag.put_scalar(2, {1}, 9);
    } else {
      h.rt().conduit().wait_until(flag.offset(), Cmp::kEq, 9);
      EXPECT_GE(h.engine().now(), 10'000);
    }
    h.rt().sync_all();
  });
}

TEST(ShmemPtr, DirectPathIsCheaper) {
  auto cost = [](bool direct) {
    Harness h(Stack::kShmemCray, 4);
    sim::Time t = 0;
    h.run([&] {
      conduit_of(h).set_intra_node_direct(direct);
      // Small payload: the per-operation overhead (library call + NIC
      // loopback vs direct store) dominates, where shmem_ptr shines.
      auto x = make_coarray<double>(h.rt(), {64});
      h.rt().sync_all();
      if (h.rt().this_image() == 1) {
        std::vector<double> buf(64, 1.0);
        const sim::Time t0 = h.engine().now();
        for (int r = 0; r < 10; ++r) x.put_contiguous(2, buf.data(), 64);
        t = h.engine().now() - t0;
      }
      h.rt().sync_all();
    });
    return t;
  };
  EXPECT_LT(cost(true) * 2, cost(false));
}

TEST(ShmemPtr, InterNodeTrafficUnaffected) {
  const int cores = net::machine_profile(net::Machine::kXC30).cores_per_node;
  auto cost = [cores](bool direct) {
    Harness h(Stack::kShmemCray, cores + 2);
    sim::Time t = 0;
    h.run([&] {
      conduit_of(h).set_intra_node_direct(direct);
      auto x = make_coarray<double>(h.rt(), {256});
      h.rt().sync_all();
      if (h.rt().this_image() == 1) {
        std::vector<double> buf(256, 1.0);
        const sim::Time t0 = h.engine().now();
        x.put_contiguous(cores + 1, buf.data(), 256);  // other node
        t = h.engine().now() - t0;
      }
      h.rt().sync_all();
    });
    return t;
  };
  EXPECT_EQ(cost(true), cost(false));
}

TEST(ShmemPtr, StridedAndScatterTakeDirectPath) {
  // Satellite coverage: iput/iget/put_scatter between same-node images go
  // through the shmem_ptr shortcut, and the telemetry reports how many
  // network messages that elided.
  Harness h(Stack::kShmemCray, 2);
  h.run([&] {
    auto& cd = conduit_of(h);
    cd.set_intra_node_direct(true);
    auto x = make_coarray<int>(h.rt(), {16});
    for (int i = 1; i <= 16; ++i) x(i) = 0;
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      const int peer = 1;  // 0-based rank of image 2, same node
      const std::vector<int> src = {11, 22, 33, 44};
      cd.iput(peer, x.offset(), /*dst_stride=*/2, src.data(),
              /*src_stride=*/1, sizeof(int), src.size());
      std::vector<int> got(src.size(), 0);
      cd.iget(got.data(), /*dst_stride=*/1, peer, x.offset(),
              /*src_stride=*/2, sizeof(int), src.size());
      EXPECT_EQ(got, src);

      const int pay[2] = {7, 9};
      const fabric::ScatterRec recs[2] = {
          {x.offset() + 4, sizeof(int), 0},
          {x.offset() + 36, sizeof(int), sizeof(int)},
      };
      cd.put_scatter(peer, recs, 2, pay, sizeof pay);
      EXPECT_EQ(x.get_scalar(2, {2}), 7);
      EXPECT_EQ(x.get_scalar(2, {10}), 9);

      auto& reg = obs::registry();
      EXPECT_EQ(reg.value(0, "direct.iputs"), 1u);
      EXPECT_EQ(reg.value(0, "direct.igets"), 1u);
      EXPECT_EQ(reg.value(0, "direct.scatters"), 1u);
      // Cray SHMEM is hardware-strided, so each strided op counts as one
      // elided message; the scatter and the two direct get_scalar loads
      // count one each.
      EXPECT_GE(reg.value(0, "direct.elided_msgs"), 5u);
      EXPECT_GT(reg.value(0, "direct.elided_bytes"), 0u);
    }
    h.rt().sync_all();
  });
}

TEST(ShmemPtr, InterNodeStridedStaysOnLibraryPath) {
  const int cores = net::machine_profile(net::Machine::kXC30).cores_per_node;
  Harness h(Stack::kShmemCray, cores + 2);
  h.run([&] {
    auto& cd = conduit_of(h);
    cd.set_intra_node_direct(true);
    auto x = make_coarray<int>(h.rt(), {16});
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      EXPECT_FALSE(cd.direct_reachable(cores));  // first rank of node 1
      EXPECT_TRUE(cd.direct_reachable(1));
      const std::vector<int> src = {1, 2, 3};
      cd.iput(cores, x.offset(), 2, src.data(), 1, sizeof(int), src.size());
      cd.quiet();
      std::vector<int> got(3, 0);
      cd.iget(got.data(), 1, cores, x.offset(), 2, sizeof(int), got.size());
      EXPECT_EQ(got, src);
      EXPECT_EQ(obs::registry().value(0, "direct.iputs"), 0u);
      EXPECT_EQ(obs::registry().value(0, "direct.igets"), 0u);
    }
    h.rt().sync_all();
  });
}
