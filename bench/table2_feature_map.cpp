// Table II: the CAF ↔ OpenSHMEM feature mapping. Prints the table and
// *executes* each mapping once through the ShmemConduit-backed runtime so a
// row is only printed if the mapped feature actually works. The runtime's
// co_broadcast/co_sum run on the collectives engine, so the two collective
// rows are also executed as the OpenSHMEM calls themselves
// (shmem_broadcast, shmem_<op>_to_all) on the stack's shmem::World.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/driver.hpp"
#include "caf/shmem_conduit.hpp"

namespace {

struct Row {
  const char* property;
  const char* caf;
  const char* openshmem;
};

const Row kRows[] = {
    {"Symmetric data allocation", "allocate", "shmalloc"},
    {"Total image count", "num_images()", "num_pes()"},
    {"Current image ID", "this_image()", "my_pe()"},
    {"Collectives - reduction", "co_sum/co_min/co_max", "shmem_<op>_to_all"},
    {"Collectives - broadcast", "co_broadcast", "shmem_broadcast"},
    {"Barrier synchronization", "sync all", "shmem_barrier_all"},
    {"Atomic swapping", "atomic_cas", "shmem_swap/cswap"},
    {"Atomic addition", "atomic_fetch_add", "shmem_add/fadd"},
    {"Atomic AND operation", "atomic_fetch_and", "shmem_and"},
    {"Atomic OR operation", "atomic_or", "shmem_or"},
    {"Atomic XOR operation", "atomic_xor", "shmem_xor"},
    {"Remote memory put", "x(...)[j] = ...", "shmem_put"},
    {"Remote memory get", "... = x(...)[j]", "shmem_get"},
    {"1-D strided put", "x(lo:hi:st)[j] = ...", "shmem_iput"},
    {"1-D strided get", "... = x(lo:hi:st)[j]", "shmem_iget"},
    {"Multi-dim strided put", "x(sec...)[j] = ...", "(2dim_strided, §IV-C)"},
    {"Multi-dim strided get", "... = x(sec...)[j]", "(2dim_strided, §IV-C)"},
    {"Remote locks", "lock(lck[j])", "(MCS over AMOs, §IV-D)"},
};

}  // namespace

int main() {
  std::printf("=== Table II: CAF / OpenSHMEM feature mapping ===\n");
  // Exercise every mapping through the runtime once.
  driver::Stack stack(driver::StackKind::kShmemCray, 8, net::Machine::kXC30,
                      4 << 20);
  bool all_ok = true;
  stack.run([&](caf::Runtime& rt) {
    auto x = caf::make_coarray<int>(rt, {16, 8});           // allocate
    const int me = rt.this_image();                         // this_image
    const int n = rt.num_images();                          // num_images
    for (int j = 1; j <= 8; ++j)
      for (int i = 1; i <= 16; ++i) x(i, j) = me;
    rt.sync_all();                                          // sync all
    x.put_scalar(me % 8 + 1, {1, 1}, me);                   // put
    (void)x.get_scalar(me % 8 + 1, {2, 1});                 // get
    std::vector<int> buf(8, me);
    x.put_section(me % 8 + 1, caf::Section{{1, 15, 2}, {2, 2, 1}},
                  buf.data());                              // 1-D strided put
    x.get_section(buf.data(), me % 8 + 1,
                  caf::Section{{1, 15, 2}, {3, 3, 1}});     // 1-D strided get
    x.put_section(me % 8 + 1, caf::Section{{1, 15, 2}, {1, 8, 2}},
                  std::vector<int>(32, me).data());         // multi-dim put
    caf::AtomicCell cell(rt);
    (void)cell.fetch_add(1, 1);                             // atomic add
    (void)cell.cas(1, -1, 0);                               // atomic cas
    (void)cell.fetch_and(1, ~0ll);                          // atomic and
    (void)cell.fetch_or(1, 0);                              // atomic or
    (void)cell.fetch_xor(1, 0);                             // atomic xor
    int b = me;
    rt.co_broadcast(&b, 1, 1);                              // co_broadcast
    if (b != 1) {
      std::fprintf(stderr, "image %d: broadcast got %d\n", me, b);
    }
    all_ok = all_ok && (b == 1);
    std::int64_t s = 1;
    rt.co_sum(&s, 1);                                       // co_sum
    all_ok = all_ok && (s == n);
    // The OpenSHMEM side of the two collective rows, on symmetric memory
    // (a coarray's local storage). Only the root writes the broadcast word:
    // its put may land before a lagging image gets here.
    shmem::World& world =
        dynamic_cast<caf::ShmemConduit&>(rt.conduit()).world();
    auto sym = caf::make_coarray<std::int64_t>(rt, {2});
    std::int64_t* word = sym.data();
    if (me == 3) word[0] = 42;
    world.broadcast(&word[0], sizeof word[0], /*root=*/2);  // shmem_broadcast
    word[1] = me;
    world.reduce(&word[1], &word[1], 1, shmem::ReduceOp::kSum);  // sum_to_all
    all_ok = all_ok && word[0] == 42 && word[1] == n * (n + 1) / 2;
    caf::CoLock lck = rt.make_lock();
    rt.lock(lck, 1);                                        // remote lock
    rt.unlock(lck, 1);
    rt.sync_all();
  });
  std::printf("%-28s %-24s %-28s\n", "Property", "CAF", "OpenSHMEM");
  for (const Row& r : kRows) {
    std::printf("%-28s %-24s %-28s\n", r.property, r.caf, r.openshmem);
  }
  std::printf("\nall mappings executed successfully: %s\n",
              all_ok ? "yes" : "NO");
  return all_ok ? 0 : 1;
}
