// Runtime tests across all three conduit stacks: image inquiry, coarray
// allocation, RMA semantics, sync, non-symmetric slab, events, atomics, and
// collectives.
#include <gtest/gtest.h>

#include <numeric>

#include "caf_test_util.hpp"

using namespace caf;
using caftest::Harness;
using caftest::Stack;

class RuntimeAllStacks : public ::testing::TestWithParam<Stack> {};

INSTANTIATE_TEST_SUITE_P(
    Stacks, RuntimeAllStacks, ::testing::ValuesIn(caftest::kAllStacks),
    [](const auto& info) {
      std::string s = caftest::to_string(info.param);
      for (auto& c : s) if (c == '-') c = '_';
      return s;
    });

TEST_P(RuntimeAllStacks, ImageInquiry) {
  Harness h(GetParam(), 12);
  std::vector<int> seen(13, 0);
  h.run([&] {
    EXPECT_EQ(h.rt().num_images(), 12);
    seen[h.rt().this_image()] = 1;
  });
  for (int i = 1; i <= 12; ++i) EXPECT_EQ(seen[i], 1) << "image " << i;
}

TEST_P(RuntimeAllStacks, Figure1Program) {
  // The left-hand CAF program of paper Figure 1.
  Harness h(GetParam(), 8);
  h.run([&] {
    auto coarray_x = make_coarray<int>(h.rt(), {4});
    auto coarray_y = make_coarray<int>(h.rt(), {4});
    const int my_image = h.rt().this_image();
    for (int i = 1; i <= 4; ++i) {
      coarray_x(i) = my_image;
      coarray_y(i) = 0;
    }
    h.rt().sync_all();
    coarray_y(2) = coarray_x.get_scalar(4, {3});  // coarray_x(3)[4]
    coarray_x.put_scalar(4, {1}, coarray_y(2));   // coarray_x(1)[4] = ...
    h.rt().sync_all();
    EXPECT_EQ(coarray_y(2), 4);
    if (my_image == 4) {
      EXPECT_EQ(coarray_x(1), 4);
    }
    h.rt().sync_all();
    free_coarray(h.rt(), coarray_y);
    free_coarray(h.rt(), coarray_x);
  });
}

TEST_P(RuntimeAllStacks, CoarrayOffsetsAreSymmetric) {
  Harness h(GetParam(), 6);
  std::vector<std::uint64_t> offs(6);
  h.run([&] {
    auto a = make_coarray<double>(h.rt(), {100});
    auto b = make_coarray<int>(h.rt(), {3, 3});
    offs[h.rt().this_image() - 1] = a.offset() ^ (b.offset() << 24);
  });
  for (int i = 1; i < 6; ++i) EXPECT_EQ(offs[i], offs[0]);
}

TEST_P(RuntimeAllStacks, StrictModelOrdersPutGet) {
  // Figure 4's sequence: put then read back must observe the put.
  Harness h(GetParam(), 4);
  h.run([&] {
    auto a = make_coarray<int>(h.rt(), {16});
    for (int i = 1; i <= 16; ++i) a(i) = 0;
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      std::vector<int> b(16, 9);
      a.put_contiguous(2, b.data(), 16);
      std::vector<int> c(16, -1);
      a.get_contiguous(c.data(), 2, 16);
      for (int v : c) EXPECT_EQ(v, 9);
    }
    h.rt().sync_all();
  });
}

TEST_P(RuntimeAllStacks, PutCapturesSourceImmediately) {
  // Figure 4 upper half: modifying the source after the put statement must
  // not change what lands remotely (local completion).
  Harness h(GetParam(), 3);
  h.run([&] {
    auto y = make_coarray<int>(h.rt(), {4});
    for (int i = 1; i <= 4; ++i) y(i) = 0;
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      std::vector<int> x(4, 3);
      y.put_contiguous(2, x.data(), 4);
      std::fill(x.begin(), x.end(), 0);  // coarray_x(:) = 0
    }
    h.rt().sync_all();
    if (h.rt().this_image() == 2) {
      for (int i = 1; i <= 4; ++i) EXPECT_EQ(y(i), 3);
    }
    h.rt().sync_all();
  });
}

TEST_P(RuntimeAllStacks, SyncImagesPairwise) {
  Harness h(GetParam(), 6);
  h.run([&] {
    const int me = h.rt().this_image();
    auto flag = make_coarray<std::int64_t>(h.rt(), {1});
    flag(1) = 0;
    h.rt().sync_all();
    // Odd/even partner handshake: image 2k+1 writes to 2k+2, then both sync.
    if (me % 2 == 1) {
      const int partner = me + 1;
      flag.put_scalar(partner, {1}, me);
      const int list[] = {partner};
      h.rt().sync_images(list);
    } else {
      const int partner = me - 1;
      const int list[] = {partner};
      h.rt().sync_images(list);
      EXPECT_EQ(flag(1), partner);
    }
    h.rt().sync_all();
  });
}

TEST_P(RuntimeAllStacks, NonSymmetricSlabAllocRemoteAccess) {
  // §IV-A: non-symmetric data carved from the managed buffer is remotely
  // accessible through packed pointers.
  Harness h(GetParam(), 4);
  h.run([&] {
    const int me = h.rt().this_image();
    auto box = make_coarray<std::int64_t>(h.rt(), {1});  // publish ptr bits
    RemotePtr mine = h.rt().nonsym_alloc(64);
    EXPECT_EQ(mine.image(), me - 1);
    auto* p = reinterpret_cast<std::int64_t*>(h.rt().local_addr(mine.offset()));
    *p = 1000 + me;
    box(1) = static_cast<std::int64_t>(mine.bits());
    h.rt().sync_all();
    // Read right neighbor's non-symmetric block through its published ptr.
    const int right = me % h.rt().num_images() + 1;
    const auto bits = static_cast<std::uint64_t>(box.get_scalar(right, {1}));
    const RemotePtr theirs = RemotePtr::from_bits(bits);
    EXPECT_EQ(theirs.image(), right - 1);
    std::int64_t v = 0;
    h.rt().get_bytes(&v, theirs.image() + 1, theirs.offset(), sizeof v);
    EXPECT_EQ(v, 1000 + right);
    h.rt().sync_all();
    h.rt().nonsym_free(mine);
  });
}

TEST_P(RuntimeAllStacks, AtomicsAcrossImages) {
  Harness h(GetParam(), 10);
  h.run([&] {
    AtomicCell cell(h.rt());
    h.rt().reset_stats();
    (void)cell.fetch_add(1, 5);
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      EXPECT_EQ(cell.ref(1), 50);
    }
    h.rt().sync_all();
    // atomic_define / atomic_ref on a remote image.
    if (h.rt().this_image() == 2) cell.define(3, 12345);
    h.rt().sync_all();
    if (h.rt().this_image() == 3) {
      EXPECT_EQ(cell.ref(3), 12345);
    }
    h.rt().sync_all();
    // ImageStats::amos counts one per atomic_* intrinsic call: every image
    // did one fetch_add; images 1-3 also did one ref or define.
    EXPECT_EQ(h.rt().stats().amos, h.rt().this_image() <= 3 ? 2u : 1u);
  });
}

TEST_P(RuntimeAllStacks, EventsPostWaitQuery) {
  Harness h(GetParam(), 4);
  h.run([&] {
    CoEvent ev = h.rt().make_event();
    const int me = h.rt().this_image();
    if (me != 1) {
      h.engine().advance(1'000 * me);  // staggered posts
      h.rt().event_post(ev, 1);
    } else {
      h.rt().event_wait(ev, 3);  // all three posts
      EXPECT_EQ(h.rt().event_query(ev), 0);
    }
    h.rt().sync_all();
  });
}

class RuntimeCollectives
    : public ::testing::TestWithParam<std::tuple<Stack, int>> {};

INSTANTIATE_TEST_SUITE_P(
    StacksAndSizes, RuntimeCollectives,
    ::testing::Combine(::testing::ValuesIn(caftest::kAllStacks),
                       ::testing::Values(1, 2, 5, 8, 16, 33)));

TEST_P(RuntimeCollectives, CoSumMatchesSerial) {
  auto [stack, n] = GetParam();
  Harness h(stack, n);
  h.run([&] {
    const int me = h.rt().this_image();
    double vals[3] = {me * 1.5, -me * 2.0, 1.0};
    h.rt().co_sum(vals, 3);
    double e0 = 0, e1 = 0;
    for (int i = 1; i <= h.rt().num_images(); ++i) {
      e0 += i * 1.5;
      e1 += -i * 2.0;
    }
    EXPECT_DOUBLE_EQ(vals[0], e0);
    EXPECT_DOUBLE_EQ(vals[1], e1);
    EXPECT_DOUBLE_EQ(vals[2], h.rt().num_images());
  });
}

TEST_P(RuntimeCollectives, CoMinMax) {
  auto [stack, n] = GetParam();
  Harness h(stack, n);
  h.run([&] {
    const int me = h.rt().this_image();
    int v = (me * 7) % 13;
    int vmax = v, vmin = v;
    h.rt().co_max(&vmax, 1);
    h.rt().co_min(&vmin, 1);
    int emax = 0, emin = 1 << 30;
    for (int i = 1; i <= h.rt().num_images(); ++i) {
      emax = std::max(emax, (i * 7) % 13);
      emin = std::min(emin, (i * 7) % 13);
    }
    EXPECT_EQ(vmax, emax);
    EXPECT_EQ(vmin, emin);
  });
}

TEST_P(RuntimeCollectives, CoBroadcast) {
  auto [stack, n] = GetParam();
  Harness h(stack, n);
  h.run([&] {
    const int src = std::min(2, h.rt().num_images());
    std::vector<int> data(100);
    if (h.rt().this_image() == src) {
      std::iota(data.begin(), data.end(), 5000);
    }
    h.rt().co_broadcast(data.data(), data.size(), src);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(data[i], 5000 + i);
  });
}

TEST(Runtime, CoBroadcastLargePayloadChunks) {
  // Exceeds the 8 KiB staging slot; exercises the chunking loop.
  Harness h(Stack::kShmemCray, 4);
  h.run([&] {
    std::vector<double> data(5000);  // 40 KB
    if (h.rt().this_image() == 1) {
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = i * 0.5;
    }
    h.rt().co_broadcast(data.data(), data.size(), 1);
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_DOUBLE_EQ(data[i], i * 0.5);
    }
  });
}

TEST(Runtime, CoBroadcastWithSkewedArrival) {
  // Regression: images reaching co_broadcast late (e.g. after contended
  // atomics serialized them) must not overwrite broadcast data that already
  // landed in their staging slot.
  Harness h(Stack::kShmemCray, 8);
  h.run([&] {
    AtomicCell cell(h.rt());
    (void)cell.fetch_add(1, 5);  // serializes at image 1: images skew
    int b = h.rt().this_image();
    h.rt().co_broadcast(&b, 1, 1);
    EXPECT_EQ(b, 1) << "image " << h.rt().this_image();
    // And a second broadcast from a different, late source.
    double d[3] = {0, 0, 0};
    if (h.rt().this_image() == 7) {
      d[0] = 1.5;
      d[1] = -2.5;
      d[2] = 99.0;
    }
    h.rt().co_broadcast(d, 3, 7);
    EXPECT_DOUBLE_EQ(d[0], 1.5);
    EXPECT_DOUBLE_EQ(d[2], 99.0);
    h.rt().sync_all();
  });
}

TEST(Runtime, ScalarCoSumAndMidRootBroadcast) {
  // A scalar co_sum and a co_broadcast from a non-first root at a
  // non-power-of-two image count.
  Harness h(Stack::kShmemMvapich, 7);
  h.run([&] {
    double v = h.rt().this_image() * 1.25;
    h.rt().co_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v, 1.25 * (7 * 8 / 2));
    int b = h.rt().this_image() == 3 ? 99 : 0;
    h.rt().co_broadcast(&b, 1, 3);
    EXPECT_EQ(b, 99);
  });
}

TEST(Runtime, RequiresInit) {
  Harness h(Stack::kShmemCray, 2);
  h.run(
      [&] {
        EXPECT_THROW(h.rt().sync_all(), std::logic_error);
        h.rt().init();
        h.rt().sync_all();
      },
      /*auto_init=*/false);
}

TEST(Runtime, RelaxedModelSkipsAutoQuiet) {
  // In relaxed mode a put's data need not be remotely visible when the call
  // returns; sync_memory() makes it so.
  caf::Options opts;
  opts.memory_model = caf::MemoryModel::kRelaxed;
  Harness h(Stack::kShmemCray, 2, opts);
  h.run([&] {
    auto x = make_coarray<int>(h.rt(), {1});
    x(1) = 0;
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      const sim::Time t0 = h.engine().now();
      x.put_scalar(2, {1}, 42);
      const sim::Time put_cost = h.engine().now() - t0;
      // No quiet: the call returns after local completion only, well under
      // the wire latency.
      EXPECT_LT(put_cost, h.fabric().profile().hw_latency);
      h.rt().sync_memory();
    }
    h.rt().sync_all();
    if (h.rt().this_image() == 2) {
      EXPECT_EQ(x(1), 42);
    }
    h.rt().sync_all();
  });
}

TEST(Runtime, StrictPutPaysQuiet) {
  caf::Options opts;  // strict by default
  // cores_per_node + 2 images, so the last image sits on the second node.
  const int cores = net::machine_profile(net::Machine::kXC30).cores_per_node;
  Harness h(Stack::kShmemCray, cores + 2, opts);
  h.run([&] {
    auto x = make_coarray<int>(h.rt(), {1});
    h.rt().sync_all();
    if (h.rt().this_image() == 1) {
      const sim::Time t0 = h.engine().now();
      x.put_scalar(cores + 1, {1}, 42);
      EXPECT_GE(h.engine().now() - t0, h.fabric().profile().hw_latency);
    }
    h.rt().sync_all();
  });
}
