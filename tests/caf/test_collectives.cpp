// Conformance tests for the topology-aware collectives engine: every
// algorithm arm, on every conduit, must produce results bit-identical to a
// sequential ascending-rank fold — including a non-commutative (but
// associative) combiner, which exposes any arm that merges out of order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "caf/collectives.hpp"
#include "caf/shmem_conduit.hpp"
#include "caf_test_util.hpp"

using caf::CollAlgo;
using caftest::Harness;
using caftest::Stack;

namespace {

caf::Options coll_opts(CollAlgo bcast, CollAlgo red) {
  caf::Options o;
  o.coll.broadcast = bcast;
  o.coll.reduce = red;
  return o;
}

std::string stack_name(const ::testing::TestParamInfo<Stack>& info) {
  switch (info.param) {
    case Stack::kShmemCray: return "cray_shmem";
    case Stack::kShmemMvapich: return "mvapich_shmem";
    case Stack::kGasnet: return "gasnet";
    case Stack::kArmci: return "armci";
    case Stack::kMpi3: return "mpi3";
  }
  return "unknown";
}

// 2x2 integer matrices mod 1'000'003 under multiplication: associative but
// NON-commutative, so an arm that folds out of rank order computes a
// visibly different product.
constexpr std::int64_t kMod = 1'000'003;

struct Mat {
  std::int64_t m[4];
};

Mat mat_mul(const Mat& x, const Mat& y) {
  Mat r;
  r.m[0] = (x.m[0] * y.m[0] + x.m[1] * y.m[2]) % kMod;
  r.m[1] = (x.m[0] * y.m[1] + x.m[1] * y.m[3]) % kMod;
  r.m[2] = (x.m[2] * y.m[0] + x.m[3] * y.m[2]) % kMod;
  r.m[3] = (x.m[2] * y.m[1] + x.m[3] * y.m[3]) % kMod;
  return r;
}

Mat mat_of(int rank0, std::size_t i) {
  Mat v;
  for (int j = 0; j < 4; ++j) {
    v.m[j] = ((rank0 + 1) * 1'009 + static_cast<std::int64_t>(i) * 31 +
              j * 7 + 1) %
             kMod;
  }
  return v;
}

void mat_comb(void* a, const void* b) {
  Mat x, y;
  std::memcpy(&x, a, sizeof x);
  std::memcpy(&y, b, sizeof y);
  x = mat_mul(x, y);
  std::memcpy(a, &x, sizeof x);
}

std::int64_t bcast_val(int root0, std::size_t i) {
  return root0 * 1'000'003LL + static_cast<std::int64_t>(i) * 7 + 1;
}

class CollConformance : public ::testing::TestWithParam<Stack> {};
INSTANTIATE_TEST_SUITE_P(Conduits, CollConformance,
                         ::testing::ValuesIn(caftest::kAllStacks), stack_name);

}  // namespace

TEST_P(CollConformance, BroadcastArmsMatchReference) {
  // 24'000 bytes: the non-pipelined arms chunk (3 slots), kPipelined
  // actually streams. Two back-to-back broadcasts with different roots
  // stress the generation-parity slot banks.
  constexpr std::size_t kN = 3'000;
  for (const int images : {5, 17, 33}) {
    for (const CollAlgo arm :
         {CollAlgo::kFlat, CollAlgo::kBinomial, CollAlgo::kTwoLevel,
          CollAlgo::kPipelined}) {
      Harness h(GetParam(), images, coll_opts(arm, CollAlgo::kAuto));
      h.run([&] {
        auto& rt = h.rt();
        const int me0 = rt.this_image() - 1;
        const int rootA = 2 % images;
        const int rootB = images - 1;
        std::vector<std::int64_t> data(kN);
        for (std::size_t i = 0; i < kN; ++i) {
          data[i] = me0 == rootA ? bcast_val(rootA, i) : -1;
        }
        rt.co_broadcast(data.data(), kN, rootA + 1);
        for (std::size_t i = 0; i < kN; ++i) {
          ASSERT_EQ(data[i], bcast_val(rootA, i))
              << "arm=" << static_cast<int>(arm) << " images=" << images
              << " i=" << i;
        }
        // Immediately again from a different root, no intervening sync.
        if (me0 == rootB) {
          for (std::size_t i = 0; i < kN; ++i) data[i] = bcast_val(rootB, i);
        }
        rt.co_broadcast(data.data(), kN, rootB + 1);
        for (std::size_t i = 0; i < kN; ++i) {
          ASSERT_EQ(data[i], bcast_val(rootB, i))
              << "arm=" << static_cast<int>(arm) << " images=" << images
              << " i=" << i;
        }
        rt.sync_all();
      });
    }
  }
}

// Every flag, counter and ack word of the engine is carved into one control
// block ahead of the slot and bank arrays: an image's control state sits in
// one 4 KiB span (one or two pages), not one page behind each slot array.
TEST_P(CollConformance, ControlBlockFitsOneFourKiBSpan) {
  for (const int images : {5, 33, 300}) {
    Harness h(GetParam(), images);
    h.run([&] {
      auto& rt = h.rt();
      const auto b = rt.coll_engine()->control_block();
      EXPECT_GT(b.bytes, 0u);
      EXPECT_LE(b.bytes, 4096u) << "images=" << images;
      // init() zeroed this image's whole block.
      const std::byte* p = rt.conduit().segment(rt.this_image() - 1) + b.off;
      EXPECT_TRUE(std::all_of(p, p + b.bytes,
                              [](std::byte x) { return x == std::byte{0}; }));
      rt.sync_all();
    });
  }
}

TEST_P(CollConformance, ReduceArmsMatchRankOrderFold) {
  // 400 * 32 B = 12'800 B: above one pipe chunk (kPipelined streams), and
  // several recursive-doubling/two-level chunks of rd_max_bytes.
  constexpr std::size_t kMats = 400;
  for (const int images : {5, 17, 33}) {
    // Sequential ascending-rank reference fold.
    std::vector<Mat> expect(kMats);
    for (std::size_t i = 0; i < kMats; ++i) {
      expect[i] = mat_of(0, i);
      for (int r = 1; r < images; ++r) {
        expect[i] = mat_mul(expect[i], mat_of(r, i));
      }
    }
    for (const CollAlgo arm :
         {CollAlgo::kFlat, CollAlgo::kBinomial, CollAlgo::kTwoLevel,
          CollAlgo::kRecursiveDoubling, CollAlgo::kPipelined}) {
      Harness h(GetParam(), images, coll_opts(CollAlgo::kAuto, arm));
      h.run([&] {
        auto& rt = h.rt();
        const int me0 = rt.this_image() - 1;
        std::vector<Mat> data(kMats);
        for (std::size_t i = 0; i < kMats; ++i) data[i] = mat_of(me0, i);
        rt.coll_engine()->allreduce(data.data(), kMats, sizeof(Mat), mat_comb);
        ASSERT_EQ(std::memcmp(data.data(), expect.data(),
                              kMats * sizeof(Mat)),
                  0)
            << "arm=" << static_cast<int>(arm) << " images=" << images;
        rt.sync_all();
      });
    }
  }
}

TEST_P(CollConformance, CoSumThroughRuntimeMatchesExact) {
  // co_sum and co_broadcast through the runtime over the auto-selected
  // arms: exactly representable doubles make any associative fold order
  // bit-identical. The second run arms a kill scheduled long after the body
  // ends, so the runtime is in resilient mode (kills armed) while no image
  // dies mid-collective: the engine is the collective path there too.
  constexpr std::size_t kN = 1'500;  // 12 KB: forces the pipelined path
  constexpr std::size_t kB = 100;
  const int images = 18;
  const int root = 6;  // a non-first root
  net::FaultPlan late_kill;
  late_kill.kill_pe(images - 1, 50'000'000);  // 50 ms
  for (const net::FaultPlan& plan : {net::FaultPlan{}, late_kill}) {
    Harness h(GetParam(), images, coll_opts(CollAlgo::kAuto, CollAlgo::kAuto),
              2 << 20, plan);
    h.run([&] {
      auto& rt = h.rt();
      EXPECT_EQ(h.engine().kills_armed(), plan.active());
      std::vector<double> data(kN);
      for (std::size_t i = 0; i < kN; ++i) {
        data[i] = rt.this_image() * 1.5 + static_cast<double>(i % 7);
      }
      rt.co_sum(data.data(), kN);
      const double ranksum = 1.5 * images * (images + 1) / 2;
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(data[i], ranksum + images * static_cast<double>(i % 7));
      }
      std::vector<std::int64_t> b(kB);
      for (std::size_t i = 0; i < kB; ++i) {
        b[i] = rt.this_image() == root ? bcast_val(root - 1, i) : -1;
      }
      rt.co_broadcast(b.data(), kB, root);
      for (std::size_t i = 0; i < kB; ++i) {
        ASSERT_EQ(b[i], bcast_val(root - 1, i)) << "i=" << i;
      }
      const auto& tele = rt.coll_engine()->telemetry();
      EXPECT_EQ(tele.reductions, 1u);
      EXPECT_EQ(tele.broadcasts, 1u);
      rt.sync_all();
      EXPECT_TRUE(rt.failed_images().empty());  // the kill comes later
    });
  }
}

TEST(CollEngine, SelectorPricesFromProfile) {
  // Stampede (16 cores/node) at 33 images spans 3 nodes: small payloads
  // favor the hierarchical arms, large ones the pipelined tree.
  Harness multi(Stack::kShmemMvapich, 33, coll_opts(CollAlgo::kAuto,
                                                    CollAlgo::kAuto));
  multi.run([&] {
    auto* eng = multi.rt().coll_engine();
    ASSERT_NE(eng, nullptr);
    EXPECT_EQ(eng->num_nodes(), 3);
    EXPECT_EQ(eng->node_size(), 16);
    EXPECT_EQ(eng->pick_broadcast(64), CollAlgo::kTwoLevel);
    EXPECT_EQ(eng->pick_reduce(8), CollAlgo::kTwoLevel);
    EXPECT_EQ(eng->pick_broadcast(100'000), CollAlgo::kPipelined);
    EXPECT_EQ(eng->pick_reduce(100'000), CollAlgo::kPipelined);
    multi.rt().sync_all();
  });
  // 8 images on an XC30 node (24 cores) are a single node: no hierarchy to
  // exploit; small allreduces take recursive doubling.
  Harness single(Stack::kShmemCray, 8, coll_opts(CollAlgo::kAuto,
                                                 CollAlgo::kAuto));
  single.run([&] {
    auto* eng = single.rt().coll_engine();
    EXPECT_EQ(eng->num_nodes(), 1);
    EXPECT_EQ(eng->pick_broadcast(64), CollAlgo::kBinomial);
    EXPECT_EQ(eng->pick_reduce(8), CollAlgo::kRecursiveDoubling);
    single.rt().sync_all();
  });
}

TEST(CollEngine, TwoLevelOnlyLeadersTouchTheWire) {
  // 33 Stampede images = 3 nodes of 16/16/1. Broadcasting from image 6
  // (rank 5, mid-node): under the two-level arm the only images allowed to
  // send across nodes are the root (standing in for its node's leader) and
  // the other node leaders — ranks 5, 16, 32. A rotated binomial tree, by
  // contrast, scatters cross-node edges over arbitrary ranks.
  Harness h(Stack::kShmemMvapich, 33,
            coll_opts(CollAlgo::kTwoLevel, CollAlgo::kAuto));
  h.run([&] {
    auto& rt = h.rt();
    std::vector<std::int64_t> data(128, rt.this_image());
    rt.co_broadcast(data.data(), data.size(), 6);
    rt.sync_all();
    const auto& tele = rt.coll_engine()->telemetry();
    const int me0 = rt.this_image() - 1;
    if (me0 == 5) {
      EXPECT_GT(tele.inter_node_msgs, 0u);  // root feeds the other leaders
    } else if (me0 != 16 && me0 != 32) {
      EXPECT_EQ(tele.inter_node_msgs, 0u);
    }
  });
}

TEST(CollEngine, TwoLevelBroadcastBeatsBinomialAcrossNodes) {
  // The latency claim behind the selector's pricing: for small payloads on
  // a 3-node machine, one inter-node k-nomial hop plus intra-node fan-out
  // beats ceil(log2 33) = 6 serial wire hops.
  auto elapsed = [](CollAlgo arm) {
    Harness h(Stack::kShmemMvapich, 33, coll_opts(arm, CollAlgo::kAuto));
    sim::Time t = 0;
    h.run([&] {
      auto& rt = h.rt();
      std::int64_t v[8] = {};
      rt.sync_all();
      const sim::Time t0 = h.engine().now();
      for (int i = 0; i < 20; ++i) rt.co_broadcast(v, 8, 1);
      rt.sync_all();
      if (rt.this_image() == 1) t = h.engine().now() - t0;
    });
    return t;
  };
  EXPECT_LT(elapsed(CollAlgo::kTwoLevel), elapsed(CollAlgo::kBinomial));
}

TEST(CollEngine, IntraNodeStagesUseDirectPath) {
  // Cray SHMEM with shmem_ptr enabled: the two-level gather/fan-out stages
  // within a node are direct load/store-reachable, and the telemetry
  // records it.
  Harness h(Stack::kShmemCray, 6,
            coll_opts(CollAlgo::kTwoLevel, CollAlgo::kTwoLevel));
  h.run([&] {
    auto& cd = dynamic_cast<caf::ShmemConduit&>(h.rt().conduit());
    cd.set_intra_node_direct(true);
    auto& rt = h.rt();
    std::int64_t v = rt.this_image();
    rt.co_sum(&v, 1);
    EXPECT_EQ(v, 21);
    rt.sync_all();
    const auto& tele = rt.coll_engine()->telemetry();
    if (rt.this_image() != 1) {  // every non-leader sent intra-node
      EXPECT_GT(tele.intra_node_msgs, 0u);
      EXPECT_EQ(tele.direct_intra_msgs, tele.intra_node_msgs);
    }
    EXPECT_EQ(tele.inter_node_msgs, 0u);  // single node: nothing crossed
  });
}

TEST(CollEngine, HierarchicalBarrierSynchronizes) {
  // team_sync on a fault-free run takes the engine's dissemination barrier;
  // a late image must hold everyone back, across nodes.
  const int images = 34;  // 3 Stampede nodes, ragged last node
  Harness h(Stack::kShmemMvapich, images);
  h.run([&] {
    auto& rt = h.rt();
    caf::Team all;
    for (int i = 1; i <= images; ++i) all.members.push_back(i);
    for (int round = 1; round <= 3; ++round) {
      if (rt.this_image() == round) {
        h.engine().advance(100'000 * round);
      }
      EXPECT_EQ(rt.team_sync(all), caf::kStatOk);
      EXPECT_GE(h.engine().now(),
                static_cast<sim::Time>(100'000) * round);
    }
    EXPECT_EQ(rt.coll_engine()->telemetry().barriers, 3u);
  });
}

TEST(CollEngine, PipelinedTelemetryShowsStreaming) {
  // A 256 KB broadcast at depth 4 must actually overlap segments: every
  // interior image forwards 32 chunks per child.
  Harness h(Stack::kShmemMvapich, 9,
            coll_opts(CollAlgo::kPipelined, CollAlgo::kAuto));
  h.run([&] {
    auto& rt = h.rt();
    std::vector<std::int64_t> data(32'768);
    if (rt.this_image() == 1) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = bcast_val(0, i);
      }
    }
    rt.co_broadcast(data.data(), data.size(), 1);
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(data[i], bcast_val(0, i));
    }
    rt.sync_all();
    if (rt.this_image() == 1) {
      EXPECT_GE(rt.coll_engine()->telemetry().chunks_pipelined, 32u);
    }
  });
}
