// The dissemination barrier the libraries share: shmem_barrier_all,
// ARMCI_Barrier, MPI_Barrier over a window and Cray CAF's sync all run
// fabric::Domain::barrier, and GASNet's AM barrier runs its own rounds on
// the same round flags. These tests drive each library's barrier through
// its own public API.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "armci/armci.hpp"
#include "craycaf/craycaf.hpp"
#include "fabric/domain.hpp"
#include "gasnet/gasnet.hpp"
#include "mpi3/rma.hpp"
#include "net/fault.hpp"
#include "net/profiles.hpp"
#include "shmem/world.hpp"

namespace {

enum class Lib { kShmem, kArmci, kMpi3, kGasnet, kCrayCaf };

const char* lib_name(Lib lib) {
  switch (lib) {
    case Lib::kShmem: return "Shmem";
    case Lib::kArmci: return "Armci";
    case Lib::kMpi3: return "Mpi3";
    case Lib::kGasnet: return "Gasnet";
    case Lib::kCrayCaf: return "CrayCaf";
  }
  return "?";
}

/// The machine each library's own tests run it on.
net::Machine home_machine(Lib lib) {
  return lib == Lib::kCrayCaf ? net::Machine::kXC30 : net::Machine::kStampede;
}

/// What these tests drive of a library: its SPMD launch and its barrier.
struct Stack {
  virtual ~Stack() = default;
  virtual void launch(std::function<void()> main) = 0;
  virtual void barrier() = 0;
};

template <typename W, void (W::*Barrier)()>
struct StackOf final : Stack {
  template <typename... A>
  explicit StackOf(A&&... args) : w(std::forward<A>(args)...) {}
  void launch(std::function<void()> main) override {
    w.launch(std::move(main));
  }
  void barrier() override { (w.*Barrier)(); }
  W w;
};

// 256 KiB holds every library's internal state with room to spare, so a
// constructor that throws does so for the PE count.
std::unique_ptr<Stack> make_stack(Lib lib, sim::Engine& engine,
                                  net::Fabric& fabric) {
  constexpr std::size_t kHeap = 256 << 10;
  const net::Machine m = home_machine(lib);
  switch (lib) {
    case Lib::kShmem:
      return std::make_unique<
          StackOf<shmem::World, &shmem::World::barrier_all>>(
          engine, fabric, net::sw_profile(net::native_shmem(m), m), kHeap);
    case Lib::kArmci:
      return std::make_unique<StackOf<armci::World, &armci::World::barrier>>(
          engine, fabric, net::sw_profile(net::Library::kArmci, m), kHeap);
    case Lib::kMpi3:
      return std::make_unique<StackOf<mpi3::Window, &mpi3::Window::barrier>>(
          engine, fabric, net::sw_profile(net::Library::kMpi3, m), kHeap);
    case Lib::kGasnet:
      return std::make_unique<StackOf<gasnet::World, &gasnet::World::barrier>>(
          engine, fabric, net::sw_profile(net::Library::kGasnet, m), kHeap);
    case Lib::kCrayCaf:
      return std::make_unique<
          StackOf<craycaf::Runtime, &craycaf::Runtime::sync_all>>(
          engine, fabric, kHeap, m);
  }
  return nullptr;
}

std::string param_name(const ::testing::TestParamInfo<Lib>& info) {
  return lib_name(info.param);
}

}  // namespace

// More PEs than the 16 round flags serve would put round 16's flag on the
// first byte past them (a library's heap or collective flags); every
// library refuses such a world before it allocates a segment.
class BarrierPeLimit : public ::testing::TestWithParam<Lib> {};

INSTANTIATE_TEST_SUITE_P(AllLibraries, BarrierPeLimit,
                         ::testing::Values(Lib::kShmem, Lib::kArmci, Lib::kMpi3,
                                           Lib::kGasnet, Lib::kCrayCaf),
                         param_name);

TEST_P(BarrierPeLimit, RejectsMorePesThanTheRoundFlagsHold) {
  sim::Engine engine;
  net::Fabric fabric(net::machine_profile(home_machine(GetParam())),
                     (1 << 16) + 1);
  EXPECT_THROW(make_stack(GetParam(), engine, fabric), std::invalid_argument);
}

// Exact work counters of 8 barriers at 64 PEs with a staggered start, a
// host-independent gate on the barrier's host cost. The event count and
// the latest leave time are the simulated schedule, the same as the
// per-round fiber loops the parked step replaced, and must never move; the
// switch count is what the step saves (the loops made 5,889 to 6,063).
struct CounterCase {
  Lib lib;
  std::uint64_t events;
  /// Barriers whose leading quiet (ARMCI) or gsync_wait (Cray CAF) found a
  /// put still in flight, and so switched out before the rounds.
  std::uint64_t quiet_waits;
  sim::Time latest_leave;
};

// The cases sit in static storage, which zeroes the padding after `lib`:
// gtest prints the raw bytes of a case into its test name, and padding
// copied from a stack temporary would make that name change run to run.
constexpr CounterCase kCounterCases[] = {
    {Lib::kShmem, 9'059, 0, 37'381},
    {Lib::kArmci, 9'135, 32, 37'142},
    {Lib::kMpi3, 9'069, 0, 68'362},
    {Lib::kCrayCaf, 8'961, 223, 27'997},
};

class BarrierWorkCounters : public ::testing::TestWithParam<CounterCase> {};

INSTANTIATE_TEST_SUITE_P(
    OneSidedLibraries, BarrierWorkCounters,
    ::testing::ValuesIn(kCounterCases),
    [](const ::testing::TestParamInfo<CounterCase>& info) {
      return std::string(lib_name(info.param.lib));
    });

TEST_P(BarrierWorkCounters, AreExact) {
  constexpr int kPes = 64;
  const CounterCase& c = GetParam();
  sim::Engine engine{64 * 1024};
  net::Fabric fabric(net::machine_profile(home_machine(c.lib)), kPes);
  auto stack = make_stack(c.lib, engine, fabric);
  std::vector<sim::Time> left(kPes, -1);
  stack->launch([&] {
    const int me = sim::this_pe::id();
    engine.advance(100 * (me % 5));
    for (int k = 0; k < 8; ++k) stack->barrier();
    left[me] = engine.now();
  });
  engine.run();
  const sim::EngineStats st = engine.stats();
  EXPECT_EQ(st.events, c.events);
  // 64 first switch-ins, 51 after a non-zero stagger, 1 per barrier per PE.
  EXPECT_EQ(st.switches, 627u + c.quiet_waits);
  EXPECT_EQ(*std::max_element(left.begin(), left.end()), c.latest_leave);
}

// PE 1 dies before PE 0 enters the barrier, and the PEs sit on different
// nodes, so PE 0's round-0 put runs out of retransmits: the barrier throws
// PeerFailedError when the put completes locally, carrying the give-up time.
struct FailureCase {
  Lib lib;
  sim::Time thrown_at;
  sim::Time gave_up;
};

class BarrierPeerFailure : public ::testing::TestWithParam<FailureCase> {};

INSTANTIATE_TEST_SUITE_P(
    OneSidedLibraries, BarrierPeerFailure,
    ::testing::Values(FailureCase{Lib::kShmem, 5'090, 9'523'854},
                      FailureCase{Lib::kArmci, 5'100, 9'523'955},
                      FailureCase{Lib::kMpi3, 5'750, 9'524'564},
                      FailureCase{Lib::kCrayCaf, 5'045, 9'180'353}),
    [](const ::testing::TestParamInfo<FailureCase>& info) {
      return std::string(lib_name(info.param.lib));
    });

TEST_P(BarrierPeerFailure, ThrowsWhenTheRoundZeroPeerIsDead) {
  const FailureCase& c = GetParam();
  net::MachineProfile mp = net::machine_profile(home_machine(c.lib));
  mp.cores_per_node = 1;
  sim::Engine engine{64 * 1024};
  net::Fabric fabric(mp, 2);
  net::FaultPlan plan;
  plan.with_seed(0xBA55).kill_pe(/*pe=*/1, /*at=*/1'000);
  net::FaultInjector injector(plan, 2, mp.cores_per_node);
  fabric.set_fault_injector(&injector);
  injector.arm(engine);
  auto stack = make_stack(c.lib, engine, fabric);
  bool threw = false;
  stack->launch([&] {
    if (sim::this_pe::id() != 0) {
      stack->barrier();
      return;
    }
    engine.advance(5'000);
    try {
      stack->barrier();
    } catch (const fabric::PeerFailedError& e) {
      threw = true;
      EXPECT_STREQ(e.op(), "put");
      EXPECT_EQ(e.src_pe(), 0);
      EXPECT_EQ(e.dst_pe(), 1);
      EXPECT_EQ(e.time(), c.gave_up);
      EXPECT_EQ(engine.now(), c.thrown_at);
    }
  });
  engine.run();
  EXPECT_TRUE(threw);
}
