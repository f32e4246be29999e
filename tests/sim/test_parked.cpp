// Parked steps (Engine::run_parked): a put+wait ring driven once by a fiber
// loop (advance_to/block) and once by a host-side step (park_until/
// park_blocked) must produce the same events at the same times, with fewer
// fiber switches; kills and step exceptions surface in the fiber where the
// fiber loop would have seen them.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

using namespace sim;
using namespace sim::literals;

namespace {

// One int64 flag word per PE. put() charges an injection cost to the
// issuer and lands the value after a pair-dependent wire time; a landed
// value wakes the PE watching that word.
struct Ring {
  static constexpr Time kInject = 120_ns;

  Engine& eng;
  int n;
  std::vector<std::int64_t> word;
  std::vector<Fiber*> watcher;
  std::vector<std::pair<Time, int>> deliveries;  ///< (time, dst) log

  Ring(Engine& e, int npes)
      : eng(e), n(npes), word(npes, 0), watcher(npes, nullptr) {}

  /// Issues me -> me+1; returns the local-completion time.
  Time put(int me, std::int64_t value) {
    const int dst = (me + 1) % n;
    const Time t0 = eng.now();
    eng.schedule_raw(t0 + 400_ns + 37_ns * me, &Ring::deliver, this,
                     static_cast<std::uint64_t>(dst),
                     static_cast<std::uint64_t>(value));
    return t0 + kInject;
  }

  static void deliver(void* self, std::uint64_t dst, std::uint64_t value) {
    auto& r = *static_cast<Ring*>(self);
    const int pe = static_cast<int>(dst);
    r.word[pe] = static_cast<std::int64_t>(value);
    r.deliveries.emplace_back(r.eng.sim_now(), pe);
    if (Fiber* f = std::exchange(r.watcher[pe], nullptr)) {
      r.eng.resume(*f, r.eng.sim_now());
    }
  }

  bool satisfied(int me, std::int64_t gen) const { return word[me] >= gen; }
  void watch(int me) { watcher[me] = eng.current_fiber(); }
};

// `rounds` put+wait rounds as a parked step.
struct RingStep {
  Ring& ring;
  int me;
  int rounds;
  int k = 0;
  bool waiting = false;

  static bool step(void* self) { return static_cast<RingStep*>(self)->run(); }

  bool run() {
    for (;;) {
      if (!waiting) {
        if (k == rounds) return true;
        waiting = true;
        if (ring.eng.park_until(ring.put(me, k + 1))) return false;
      }
      if (!ring.satisfied(me, k + 1)) {
        ring.watch(me);
        ring.eng.park_blocked();
        return false;
      }
      waiting = false;
      ++k;
    }
  }
};

struct RingRun {
  std::vector<Time> clocks;
  std::vector<std::pair<Time, int>> deliveries;
  std::size_t events;
  std::uint64_t switches;
};

RingRun run_ring(int n, int rounds, bool parked) {
  Engine eng(32 * 1024);
  Ring ring(eng, n);
  RingRun out;
  out.clocks.assign(n, -1);
  eng.spawn_pes(n, [&](int me) {
    eng.advance(10_ns * (me % 3));  // stagger the first issue
    if (parked) {
      RingStep s{ring, me, rounds};
      eng.run_parked(&RingStep::step, &s);
    } else {
      for (int k = 1; k <= rounds; ++k) {
        eng.advance_to(ring.put(me, k));
        while (!ring.satisfied(me, k)) {
          ring.watch(me);
          eng.block();
        }
      }
    }
    out.clocks[me] = eng.now();
  });
  eng.run();
  out.deliveries = ring.deliveries;
  out.events = eng.events_processed();
  out.switches = eng.stats().switches;
  return out;
}

}  // namespace

TEST(ParkedStep, RingMatchesFiberLoopWithFewerSwitches) {
  const RingRun loop = run_ring(8, 5, /*parked=*/false);
  const RingRun parked = run_ring(8, 5, /*parked=*/true);
  EXPECT_EQ(parked.clocks, loop.clocks);
  EXPECT_EQ(parked.deliveries, loop.deliveries);
  EXPECT_EQ(parked.events, loop.events);
  EXPECT_LT(parked.switches, loop.switches);
  // Per PE: one switch at spawn, one after the stagger, one when done.
  EXPECT_EQ(parked.switches, 8u * 3u - 3u);  // PEs with no stagger skip one
}

TEST(ParkedStep, DoneAtOnceNeverSwitches) {
  Engine eng;
  int calls = 0;
  eng.spawn(0, [&] {
    eng.run_parked(
        [](void* c) {
          ++*static_cast<int*>(c);
          return true;
        },
        &calls);
  });
  eng.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(eng.stats().switches, 1u);  // the spawn switch-in only
}

namespace {

// PE 0 parks blocked on a word nobody writes, PE 1 parks until t=10us; both
// PEs are killed at t=1us. Returns the times each fiber saw FiberKilled.
std::vector<Time> killed_at(bool parked) {
  Engine eng;
  Ring ring(eng, 2);
  std::vector<Time> seen(2, -1);
  struct Until {
    Engine& eng;
    static bool step(void* self) {
      return !static_cast<Until*>(self)->eng.park_until(10'000_ns);
    }
  } until{eng};
  RingStep never{ring, 0, 1};
  never.waiting = true;  // skip the put: wait for a word nobody writes
  eng.spawn_pes(2, [&](int me) {
    try {
      if (parked) {
        if (me == 0) eng.run_parked(&RingStep::step, &never);
        if (me == 1) eng.run_parked(&Until::step, &until);
      } else {
        if (me == 0) {
          ring.watch(0);
          eng.block();
        }
        if (me == 1) eng.advance_to(10'000_ns);
      }
    } catch (const FiberKilled&) {
      seen[me] = eng.now();
      throw;
    }
  });
  eng.schedule(1'000_ns, [&] {
    eng.kill_pe(0);
    eng.kill_pe(1);
  });
  eng.run();
  EXPECT_EQ(eng.fibers_unfinished(), 0);
  return seen;
}

}  // namespace

TEST(ParkedStep, KilledWhileParkedUnwindsWithFiberKilled) {
  const std::vector<Time> loop = killed_at(/*parked=*/false);
  const std::vector<Time> parked = killed_at(/*parked=*/true);
  EXPECT_EQ(loop, (std::vector<Time>{1'000_ns, 10'000_ns}));
  EXPECT_EQ(parked, loop);
}

namespace {

// Advances to 500ns, then fails; returns the time the fiber caught the error
// (and checks a step failing before any park throws at once).
Time error_at(bool parked) {
  Engine eng;
  Time seen = -1;
  struct Failing {
    Engine& eng;
    bool parked_once = false;
    static bool step(void* self) {
      auto& s = *static_cast<Failing*>(self);
      if (!s.parked_once) {
        s.parked_once = true;
        if (s.eng.park_until(500_ns)) return false;
      }
      throw std::runtime_error("retransmit budget exhausted");
    }
  } failing{eng};
  eng.spawn(0, [&] {
    try {
      if (parked) {
        eng.run_parked(&Failing::step, &failing);
      } else {
        eng.advance_to(500_ns);
        throw std::runtime_error("retransmit budget exhausted");
      }
    } catch (const std::runtime_error&) {
      seen = eng.now();
    }
    // A step that throws before parking surfaces on the fiber stack.
    Failing again{eng, /*parked_once=*/true};
    EXPECT_THROW(eng.run_parked(&Failing::step, &again), std::runtime_error);
    EXPECT_EQ(eng.now(), seen);
  });
  eng.schedule(200_ns, [] {});
  eng.run();
  return seen;
}

}  // namespace

TEST(ParkedStep, StepExceptionSurfacesInFiberAtSameTime) {
  const Time loop = error_at(/*parked=*/false);
  EXPECT_EQ(loop, 500_ns);
  EXPECT_EQ(error_at(/*parked=*/true), loop);
}
