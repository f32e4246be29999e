// Probe arms: one layer at a time, at the scale of the workload whose
// end-to-end number it should move, so that a host-path regression names
// its layer. Host times are medians over repetitions inside the probe.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "apps/dht.hpp"
#include "apps/driver.hpp"
#include "fabric/domain.hpp"
#include "net/profiles.hpp"
#include "shmem/world.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "timed_runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

constexpr int kReps = 5;

// ---- sim: event queue and fiber switch ----

void noop_event(void*, std::uint64_t, std::uint64_t) {}

std::vector<Metric> probe_sim(std::uint64_t seed) {
  constexpr int kEvents = 200'000;
  constexpr int kAdvances = 200'000;
  std::vector<double> queue_ns, switch_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    sim::Rng rng(seed + static_cast<std::uint64_t>(rep));
    // Event times spread like a run's deliveries: up to 100 us ahead.
    std::vector<sim::Time> times(kEvents);
    for (auto& t : times) t = static_cast<sim::Time>(rng.below(100'000));
    const auto q0 = Clock::now();
    {
      sim::Engine eng;
      for (const sim::Time t : times) eng.schedule_raw(t, noop_event, nullptr);
      eng.run();
    }
    queue_ns.push_back(ns_since(q0) / kEvents);

    const auto s0 = Clock::now();
    {
      sim::Engine eng(16 * 1024);
      eng.spawn(0, [] {
        for (int i = 0; i < kAdvances; ++i) sim::this_pe::advance(1);
      });
      eng.run();
    }
    switch_ns.push_back(ns_since(s0) / (2.0 * kAdvances));  // out + in
  }
  return {{"sim.queue_ns_per_event", median_of(queue_ns), "ns"},
          {"sim.switch_ns", median_of(switch_ns), "ns"}};
}

// ---- fabric: a Domain put stream over many pairs ----

std::vector<Metric> probe_fabric(std::uint64_t seed) {
  constexpr int kPes = 1024;  // dht_lock_1k's scale, Titan
  constexpr int kPutsPerPe = 64;
  std::vector<double> put_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    sim::Engine eng(16 * 1024);
    net::Fabric fabric(net::machine_profile(net::Machine::kTitan), kPes);
    fabric::Domain dom(eng, fabric,
                       net::sw_profile(net::Library::kShmemCray,
                                       net::Machine::kTitan),
                       64 << 10);
    const std::uint64_t salt = seed + static_cast<std::uint64_t>(rep);
    for (int pe = 0; pe < kPes; ++pe) {
      eng.spawn(pe, [&dom, pe, salt] {
        sim::Rng rng(salt * 1'000'003ULL + static_cast<std::uint64_t>(pe));
        std::uint64_t word = static_cast<std::uint64_t>(pe);
        for (int k = 0; k < kPutsPerPe; ++k) {
          const int dst = static_cast<int>(
              (static_cast<std::uint64_t>(pe) + 1 + rng.below(kPes - 1)) % kPes);
          dom.put(dst, static_cast<std::uint64_t>(pe % 512) * 8, &word,
                  sizeof word);
        }
        dom.quiet();
      });
    }
    const auto t0 = Clock::now();
    eng.run();
    put_ns.push_back(ns_since(t0) / (kPes * kPutsPerPe));
  }
  return {{"fabric.put_host_ns", median_of(put_ns), "ns"}};
}

// ---- shmem: barrier_all and shmalloc at 16384 PEs ----

std::vector<Metric> probe_shmem(std::uint64_t) {
  constexpr int kPes = 16 * 1024;  // himeno_16k's stack: MVAPICH2-X, Stampede
  constexpr int kBarriers = 4;
  constexpr int kAllocs = 4;
  sim::Engine eng(16 * 1024);
  net::Fabric fabric(net::machine_profile(net::Machine::kStampede), kPes);
  shmem::World world(eng, fabric,
                     net::sw_profile(net::Library::kShmemMvapich,
                                     net::Machine::kStampede),
                     512 << 10);
  Clock::time_point t_start{}, t_barriers{}, t_allocs{};
  sim::Time sim_start = 0, sim_barriers = 0;
  world.launch([&] {
    const bool lead = world.my_pe() == 0;
    // Everyone is past start-up once the first barrier completes.
    world.barrier_all();
    if (lead) {
      t_start = Clock::now();
      sim_start = sim::this_pe::now();
    }
    for (int i = 0; i < kBarriers; ++i) world.barrier_all();
    if (lead) {
      t_barriers = Clock::now();
      sim_barriers = sim::this_pe::now();
    }
    for (int i = 0; i < kAllocs; ++i) (void)world.shmalloc(64);
    if (lead) t_allocs = Clock::now();
  });
  eng.run();
  const auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  return {{"shmem.barrier_all_host_us", us(t_start, t_barriers) / kBarriers, "us"},
          {"shmem.shmalloc_host_us", us(t_barriers, t_allocs) / kAllocs, "us"},
          {"shmem.barrier_all_sim_us",
           static_cast<double>(sim_barriers - sim_start) / kBarriers / 1e3,
           "sim_us"}};
}

// ---- caf: sync_all and co_sum at 16384 images ----

std::vector<Metric> probe_caf(std::uint64_t seed) {
  constexpr int kImages = 16 * 1024;
  constexpr int kSyncs = 4;
  constexpr int kSums = 4;
  caf::Options o;
  o.strided = caf::StridedAlgo::kNaive;
  o.nonsym_slab_bytes = 64 << 10;
  driver::Stack stack(driver::StackKind::kShmemMvapich, kImages,
                      net::Machine::kStampede, 1 << 20, o);
  Clock::time_point t0{}, t1{};
  sim::Time sum_ns = 0;
  stack.run([&](caf::Runtime& rt) {
    const bool lead = rt.this_image() == 1;
    rt.sync_all();
    if (lead) t0 = Clock::now();
    for (int i = 0; i < kSyncs; ++i) rt.sync_all();
    if (lead) t1 = Clock::now();
    for (int i = 0; i < kSums; ++i) {
      double v = static_cast<double>((seed + static_cast<std::uint64_t>(i)) % 97);
      const sim::Time c0 = sim::this_pe::now();
      rt.co_sum(&v, 1);
      if (lead) sum_ns += sim::this_pe::now() - c0;
    }
  });
  return {{"caf.sync_all_host_us",
           std::chrono::duration<double, std::micro>(t1 - t0).count() / kSyncs,
           "us"},
          {"caf.co_sum_sim_us", static_cast<double>(sum_ns) / kSums / 1e3,
           "sim_us"}};
}

// ---- caf: lock / unlock / get / put through apps::dht::Table ----

using TimedTable = apps::dht::Table<TimedRuntime, caf::CoLock>;

/// Collective: the entry slice and stripe locks make_caf_table builds, for
/// a Table over the timing wrapper.
TimedTable make_timed_table(caf::Runtime& rt, TimedRuntime& trt,
                            const apps::dht::Config& cfg) {
  const std::size_t bytes =
      static_cast<std::size_t>(cfg.buckets_per_image) * sizeof(apps::dht::Entry);
  const std::uint64_t data_off = rt.allocate_coarray_bytes(bytes);
  std::memset(rt.local_addr(data_off), 0, bytes);
  std::vector<caf::CoLock> locks;
  for (int i = 0; i < cfg.locks_per_image; ++i) locks.push_back(rt.make_lock());
  rt.sync_all();
  return TimedTable(trt, cfg, data_off, std::move(locks));
}

std::vector<Metric> probe_caf_calls(std::uint64_t seed) {
  std::vector<Metric> out;
  // Host cost per call: one updating image among 32 (two Titan nodes), so
  // nothing else runs while a call is blocked.
  {
    CallLedger ledger{};
    apps::dht::Config cfg = dht_lock_1k_config(seed);
    cfg.updates_per_image = 4096;
    cfg.hot_percent = 0;
    driver::Stack stack(driver::StackKind::kShmemCray, 32, net::Machine::kTitan,
                        2 << 20);
    stack.run([&](caf::Runtime& rt) {
      TimedRuntime trt(rt, ledger);
      auto table = make_timed_table(rt, trt, cfg);
      if (rt.this_image() == 1) table.run_updates();
      rt.sync_all();
    });
    for (std::size_t c = 0; c < ledger.size(); ++c) {
      const auto& t = ledger[c];
      out.push_back({std::string("caf.") + caf_call_name(static_cast<CafCall>(c)) +
                         "_host_us",
                     static_cast<double>(t.host_ns) /
                         static_cast<double>(std::max<std::uint64_t>(t.calls, 1)) / 1e3,
                     "us"});
    }
  }
  // Simulated cost per call under dht_lock_1k's contention.
  {
    CallLedger ledger{};
    const apps::dht::Config cfg = dht_lock_1k_config(seed);
    driver::Stack stack(driver::StackKind::kShmemCray, 1024,
                        net::Machine::kTitan, 2 << 20);
    stack.run([&](caf::Runtime& rt) {
      TimedRuntime trt(rt, ledger);
      auto table = make_timed_table(rt, trt, cfg);
      table.run_updates();
      rt.sync_all();
    });
    for (std::size_t c = 0; c < ledger.size(); ++c) {
      const auto& t = ledger[c];
      out.push_back({std::string("caf.") + caf_call_name(static_cast<CafCall>(c)) +
                         "_sim_us",
                     static_cast<double>(t.sim_ns) /
                         static_cast<double>(std::max<std::uint64_t>(t.calls, 1)) / 1e3,
                     "sim_us"});
    }
  }
  return out;
}

}  // namespace

std::vector<Metric> run_probe(const std::string& name, std::uint64_t seed) {
  if (name == "sim") return probe_sim(seed);
  if (name == "fabric") return probe_fabric(seed);
  if (name == "shmem") return probe_shmem(seed);
  if (name == "caf") return probe_caf(seed);
  if (name == "caf_calls") return probe_caf_calls(seed);
  if (name == "fd") return serve_detector_probe(seed);
  throw std::invalid_argument("unknown probe: " + name);
}

}  // namespace perfbench
