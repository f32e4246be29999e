#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "apps/dht_drivers.hpp"
#include "apps/dht_replicated.hpp"
#include "apps/driver.hpp"
#include "apps/himeno.hpp"
#include "caf/coarray.hpp"
#include "checks.hpp"
#include "layers.hpp"
#include "net/fault.hpp"
#include "obs/obs.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// Host-time split of one simulation: set-up runs from Stack construction
/// until the last image reports its workload set-up done; the run phase
/// lasts from there until the engine drains. Construct it right before the
/// Stack.
class PhaseClock {
 public:
  explicit PhaseClock(int images) : remaining_(images), t0_(Clock::now()) {}

  /// Called by every image once its set-up is complete.
  void arrive() {
    if (--remaining_ == 0) t_setup_ = Clock::now();
  }

  /// Adds this simulation's set-up and run time to `r`.
  void finish(RunReport& r) {
    const auto end = Clock::now();
    // A run where some image never finished set-up has no run phase.
    const auto setup_end = remaining_ == 0 ? t_setup_ : end;
    r.setup_s += seconds_between(t0_, setup_end);
    r.run_s += seconds_between(setup_end, end);
  }

 private:
  int remaining_;
  Clock::time_point t0_;
  Clock::time_point t_setup_{};
};

void add_check(RunReport& r, std::string name, bool ok, std::string detail) {
  r.checks.push_back({std::move(name), ok, std::move(detail)});
}

bool all_ok(const RunReport& r) {
  return std::all_of(r.checks.begin(), r.checks.end(),
                     [](const Check& c) { return c.ok; });
}

// ---- Himeno on UHCAF over MVAPICH2-X SHMEM (Stampede) ----

apps::himeno::Config himeno_grid() {
  apps::himeno::Config c;
  c.gx = 32;
  c.gy = 128;
  c.gz = 128;
  c.iters = 1;
  return c;
}

caf::Options himeno_options() {
  caf::Options o;
  o.strided = caf::StridedAlgo::kNaive;
  o.nonsym_slab_bytes = 64 << 10;
  return o;
}

std::size_t himeno_p_bytes(const apps::himeno::Config& cfg) {
  return static_cast<std::size_t>(cfg.gx) * (cfg.gy / cfg.py + 2) *
         (cfg.gz / cfg.pz + 2) * sizeof(double);
}

struct HimenoSolve {
  apps::himeno::Result result{};
  sim::EngineStats engine{};
};

HimenoSolve himeno_solve(int images, const RunOptions& opts,
                         RunReport* timed, caf::ImageStats* stats_sum) {
  const auto cfg = apps::himeno::decompose(himeno_grid(), images);
  caf::Options o = himeno_options();
  o.trace = opts.traced;
  HimenoSolve out;
  PhaseClock clock(images);
  driver::Stack stack(driver::StackKind::kShmemMvapich, images,
                      net::Machine::kStampede,
                      himeno_p_bytes(cfg) + (1 << 20), o);
  stack.run([&](caf::Runtime& rt) {
    apps::himeno::Solver solver(rt, cfg);
    clock.arrive();
    const auto res = solver.run();
    rt.sync_all();
    if (rt.this_image() == 1) out.result = res;
    if (stats_sum != nullptr) accumulate(*stats_sum, rt.stats());
  });
  if (timed != nullptr) clock.finish(*timed);
  out.engine = stack.engine().stats();
  return out;
}

RunReport run_himeno_16k(const RunOptions& opts) {
  constexpr int kImages = 16 * 1024;
  RunReport r;
  caf::ImageStats stats{};
  const HimenoSolve big = himeno_solve(kImages, opts, &r, &stats);
  r.events = big.engine.events;
  if (opts.traced) {
    add_layers(r, big.engine, stats, kImages);
  }
  // Reference: the same grid on one image, where no halo exchange exists.
  RunOptions ref_opts = opts;
  ref_opts.traced = false;
  const HimenoSolve ref = himeno_solve(1, ref_opts, nullptr, nullptr);

  const double g = big.result.gosa;
  const double g_ref = ref.result.gosa;
  const bool ok = residual_matches(g, g_ref);
  add_check(r, "himeno.residual_matches_single_image", ok,
            "residual " + fmt("%.9g", g) + " vs single-image " +
                fmt("%.9g", g_ref) + " (rel err " +
                fmt("%.3g", relative_error(g, g_ref)) + ")");
  r.attempted = 1;
  r.failed = ok ? 0 : 1;

  r.digest.add_double(g);
  r.digest.add_double(g_ref);
  r.digest.add_double(big.result.mflops);
  r.digest.add_signed(big.result.elapsed);
  r.digest.add(big.engine.events);
  r.digest.add(big.engine.switches);
  if (ok) {
    r.sim.push_back({"sim_mflops", big.result.mflops, "MFLOPS"});
    r.sim.push_back({"sim_solve_us", static_cast<double>(big.result.elapsed) / 1e3,
                     "sim_us"});
  }
  return r;
}

// ---- co_sum / sync_all rounds on Himeno's 16k-image stack ----

/// Integer-valued contribution of `image` to round `round`, derived from the
/// seed. Terms stay below 2^20, so a 16384-term sum is exact in double.
double coll_value(std::uint64_t seed, int image, int round) {
  sim::Rng rng(seed * 1'000'003ULL + static_cast<std::uint64_t>(image) * 7'919ULL +
               static_cast<std::uint64_t>(round));
  return static_cast<double>(rng.below(1u << 20));
}

RunReport run_coll_16k(const RunOptions& opts) {
  constexpr int kImages = 16 * 1024;
  constexpr int kRounds = 2;
  RunReport r;
  const auto cfg = apps::himeno::decompose(himeno_grid(), kImages);
  std::vector<double> expected(kRounds, 0.0);
  for (int round = 0; round < kRounds; ++round) {
    for (int img = 1; img <= kImages; ++img) {
      expected[static_cast<std::size_t>(round)] +=
          coll_value(opts.seed, img, round);
    }
  }
  caf::Options o = himeno_options();
  o.trace = opts.traced;
  caf::ImageStats stats{};
  std::int64_t wrong = 0;
  std::vector<sim::Time> co_sum_ns(kRounds, 0);
  sim::Time rounds_ns = 0;
  PhaseClock clock(kImages);
  driver::Stack stack(driver::StackKind::kShmemMvapich, kImages,
                      net::Machine::kStampede,
                      himeno_p_bytes(cfg) + (1 << 20), o);
  stack.run([&](caf::Runtime& rt) {
    sim::Engine& eng = *sim::Engine::current();
    const int me = rt.this_image();
    // Himeno's set-up: the pressure coarray on every image, filled locally.
    auto p = caf::make_coarray<double>(
        rt, caf::Shape{cfg.gx, cfg.gy / cfg.py + 2, cfg.gz / cfg.pz + 2});
    std::fill(p.data(), p.data() + p.size(), static_cast<double>(me));
    rt.sync_all();
    clock.arrive();
    obs::phase("rounds");
    const sim::Time t0 = eng.now();
    for (int round = 0; round < kRounds; ++round) {
      double v = coll_value(opts.seed, me, round);
      const sim::Time c0 = eng.now();
      rt.co_sum(&v, 1);
      if (me == 1) co_sum_ns[static_cast<std::size_t>(round)] = eng.now() - c0;
      if (v != expected[static_cast<std::size_t>(round)]) ++wrong;
      rt.sync_all();
    }
    if (me == 1) rounds_ns = eng.now() - t0;
    accumulate(stats, rt.stats());
  });
  clock.finish(r);
  const auto es = stack.engine().stats();
  r.events += es.events;
  if (opts.traced) add_layers(r, es, stats, kImages);

  r.attempted = static_cast<std::int64_t>(kImages) * kRounds;
  r.failed = wrong;
  add_check(r, "coll.co_sum_exact_on_every_image", wrong == 0,
            std::to_string(wrong) + " of " + std::to_string(r.attempted) +
                " image-rounds returned a wrong sum");
  for (const double e : expected) r.digest.add_double(e);
  for (const sim::Time t : co_sum_ns) r.digest.add_signed(t);
  r.digest.add_signed(rounds_ns);
  r.digest.add(es.events);
  r.digest.add(es.switches);
  if (all_ok(r)) {
    sim::Time sum = 0;
    for (const sim::Time t : co_sum_ns) sum += t;
    r.sim.push_back({"co_sum_sim_us", static_cast<double>(sum) / kRounds / 1e3,
                     "sim_us"});
    r.sim.push_back({"round_sim_us",
                     static_cast<double>(rounds_ns) / kRounds / 1e3, "sim_us"});
  }
  return r;
}

// ---- Figure 9's locked DHT on UHCAF over Cray SHMEM (Titan) ----

RunReport run_dht_lock_1k(const RunOptions& opts) {
  constexpr int kImages = 1024;
  RunReport r;
  const apps::dht::Config cfg = dht_lock_1k_config(opts.seed);
  caf::Options o;
  o.trace = opts.traced;
  caf::ImageStats stats{};
  std::vector<std::int64_t> slice_sums(kImages, 0);
  sim::Time phase_ns = 0;
  PhaseClock clock(kImages);
  driver::Stack stack(driver::StackKind::kShmemCray, kImages,
                      net::Machine::kTitan, 2 << 20, o);
  stack.run([&](caf::Runtime& rt) {
    sim::Engine& eng = *sim::Engine::current();
    auto table = apps::dht::make_caf_table(rt, cfg);
    rt.sync_all();
    clock.arrive();
    const sim::Time t0 = eng.now();
    obs::phase("updates");
    table.run_updates();
    obs::phase("drain");
    rt.sync_all();
    if (rt.this_image() == 1) phase_ns = eng.now() - t0;
    slice_sums[static_cast<std::size_t>(rt.this_image() - 1)] =
        table.local_count_sum();
    accumulate(stats, rt.stats());
  });
  clock.finish(r);
  const auto es = stack.engine().stats();
  r.events += es.events;
  if (opts.traced) add_layers(r, es, stats, kImages);

  std::int64_t total = 0;
  for (const std::int64_t s : slice_sums) total += s;
  const std::int64_t expected =
      static_cast<std::int64_t>(kImages) * cfg.updates_per_image;
  r.attempted = expected;
  r.failed = dht_update_mismatch(total, expected);
  add_check(r, "dht.table_sum_equals_updates", total == expected,
            "table sum " + std::to_string(total) + ", expected " +
                std::to_string(expected));
  for (const std::int64_t s : slice_sums) r.digest.add_signed(s);
  r.digest.add_signed(phase_ns);
  r.digest.add(es.events);
  r.digest.add(es.switches);
  if (all_ok(r)) {
    r.sim.push_back({"sim_updates_per_ms",
                     static_cast<double>(expected) /
                         (static_cast<double>(phase_ns) / 1e6),
                     "1/ms"});
    r.sim.push_back({"update_phase_sim_ms",
                     static_cast<double>(phase_ns) / 1e6, "sim_ms"});
  }
  return r;
}

// ---- dht_serve's replicated serving under a primary kill (XC30) ----

constexpr int kServeNodes = 4;        // full XC30 nodes, plus a 2-PE spill node
constexpr int kServeOps = 300;        // per client and offered rate
constexpr int kVictim = 3;            // PE 3 = initial primary of shard 3
constexpr int kPutPercent = 35;
/// Offered-rate ladder: aggregate arrivals per simulated ms over all
/// clients, nominal rate first.
constexpr int kServeRates[] = {200, 300, 400, 500};

struct ServeShape {
  int images = 0;
  sim::Time period = 0;
  sim::Time jitter = 0;
  sim::Time kill_at = 0;
  std::int64_t total_keys = 0;
  apps::dhtr::Config cfg;
  std::vector<double> cdf;  // Zipf(1.0) over key popularity ranks
};

ServeShape serve_shape(int rate_per_ms) {
  ServeShape sh;
  sh.images =
      kServeNodes * net::machine_profile(net::Machine::kXC30).cores_per_node + 2;
  // Each client's gaps are period + U[0, period/2): mean 1.25 periods.
  const sim::Time mean_gap = sh.images * 1'000'000LL / rate_per_ms;
  sh.period = mean_gap * 4 / 5;
  sh.jitter = sh.period / 2;
  sh.kill_at = static_cast<sim::Time>(kServeOps) * (sh.period + sh.jitter / 2) / 3;
  sh.cfg.buckets_per_image = 16;
  sh.cfg.replication = 2;
  sh.cfg.locks_per_image = 8;
  sh.cfg.compute_ns = 200;
  sh.total_keys = sh.cfg.buckets_per_image * sh.images;
  sh.cdf.resize(static_cast<std::size_t>(sh.total_keys));
  double mass = 0.0;
  for (std::size_t rank = 0; rank < sh.cdf.size(); ++rank) {
    mass += 1.0 / static_cast<double>(rank + 1);
    sh.cdf[rank] = mass;
  }
  for (double& c : sh.cdf) c /= mass;
  sh.cdf.back() = 1.0;
  return sh;
}

/// Popularity rank → key; rank 0 sits on the victim's shard, so the kill
/// takes out the hottest primary.
std::int64_t serve_key(const ServeShape& sh, std::size_t rank) {
  return (kVictim * sh.cfg.buckets_per_image + static_cast<std::int64_t>(rank)) %
         sh.total_keys;
}

struct ServeOutcome {
  bool completed = false;
  bool victim_declared = false;
  std::vector<std::int64_t> get_ns, put_ns;  // from scheduled arrival
  std::vector<sim::Time> last_lag;           // per client: last op start lag
  std::int64_t ops = 0, unacked_puts = 0, failed_gets = 0;
  std::int64_t lost = 0, verified_keys = 0, under_replicated = 0;
  std::uint64_t false_positives = 0, detect_count = 0, detect_ns_total = 0;
  std::uint64_t promotions = 0;
};

ServeOutcome serve_once(const ServeShape& sh, const RunOptions& opts,
                        RunReport& r, bool collect_layers) {
  ServeOutcome out;
  std::vector<std::vector<std::int64_t>> acked(
      static_cast<std::size_t>(sh.images),
      std::vector<std::int64_t>(static_cast<std::size_t>(sh.total_keys), 0));
  std::vector<std::vector<std::int64_t>> get_ns(
      static_cast<std::size_t>(sh.images)),
      put_ns(static_cast<std::size_t>(sh.images));
  out.last_lag.assign(static_cast<std::size_t>(sh.images), 0);

  net::FaultPlan plan;
  plan.retry.max_retransmits = 5;
  plan.retry.rto_min = 2'000;
  plan.retry.rto_max = 20'000;
  plan.fd.heartbeat_period = 10'000;
  plan.fd.miss_threshold = 3;
  plan.fd.suspicion_grace = 50'000;
  plan.kill_pe(kVictim, sh.kill_at);
  caf::Options o;
  o.trace = opts.traced;
  caf::ImageStats stats{};

  PhaseClock clock(sh.images);
  driver::Stack stack(driver::StackKind::kShmemCray, sh.images,
                      net::Machine::kXC30, 2 << 20, o, plan);
  try {
    stack.run([&](caf::Runtime& rt) {
      sim::Engine& eng = *sim::Engine::current();
      const int me = rt.this_image();
      const auto me0 = static_cast<std::size_t>(me - 1);
      apps::dhtr::ReplicatedTable table(rt, sh.cfg);
      clock.arrive();
      obs::phase("serve");
      sim::Rng rng(opts.seed * 1'000'003ULL +
                   static_cast<std::uint64_t>(me) * 7'919ULL);
      // Open loop: arrivals follow the schedule alone, so a stall delays
      // later operations and that wait is charged to their latency.
      sim::Time arrival =
          eng.sim_now() +
          static_cast<sim::Time>(rng.below(static_cast<std::uint64_t>(sh.period)));
      for (int k = 0; k < kServeOps; ++k) {
        arrival += sh.period + static_cast<sim::Time>(rng.below(
                                   static_cast<std::uint64_t>(sh.jitter)));
        const bool is_put = rng.below(100) < kPutPercent;
        const double u = rng.uniform();
        auto rank = static_cast<std::size_t>(
            std::lower_bound(sh.cdf.begin(), sh.cdf.end(), u) - sh.cdf.begin());
        rank = std::min(rank, sh.cdf.size() - 1);
        const std::int64_t key = serve_key(sh, rank);
        if (eng.sim_now() < arrival) eng.advance(arrival - eng.sim_now());
        if (k + 1 == kServeOps) out.last_lag[me0] = eng.sim_now() - arrival;
        if (is_put) {
          // The ledger entry lands with the ack, so a victim's acknowledged
          // writes stay auditable after its fiber dies.
          if (table.put_inc(key)) {
            ++acked[me0][static_cast<std::size_t>(key)];
          } else {
            ++out.unacked_puts;
          }
        } else {
          std::int64_t v = 0;
          if (!table.get_count(key, &v)) ++out.failed_gets;
        }
        ++out.ops;
        (is_put ? put_ns : get_ns)[me0].push_back(eng.sim_now() - arrival);
      }
      // Quiesce: let the declaration land, drain re-replication, audit.
      obs::phase("audit");
      (void)rt.sync_all_stat();
      for (int i = 0; i < 800 && !eng.pe_declared(kVictim); ++i) {
        eng.advance(10'000);
      }
      for (int round = 0; round < 64; ++round) {
        table.store().anti_entropy();
        if (table.store().under_replicated_local() == 0) break;
        eng.advance(20'000);
      }
      out.under_replicated += table.store().under_replicated_local();
      (void)rt.sync_all_stat();
      if (me == 1) {
        for (std::int64_t key = 0; key < sh.total_keys; ++key) {
          std::int64_t total = 0;
          for (const auto& row : acked) total += row[static_cast<std::size_t>(key)];
          if (total == 0) continue;
          ++out.verified_keys;
          std::int64_t count = 0;
          const bool readable = table.get_count(key, &count);
          out.lost += lost_acked(total, readable, count);
        }
      }
      accumulate(stats, rt.stats());
    });
    out.completed = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve run aborted: %s\n", e.what());
  }
  clock.finish(r);
  const auto es = stack.engine().stats();
  r.events += es.events;
  if (collect_layers) add_layers(r, es, stats, sh.images);
  const auto& reg = obs::registry();
  out.victim_declared = stack.engine().pe_declared(kVictim);
  out.false_positives = reg.value(0, "fd.false_positives");
  out.detect_count = reg.value(0, "fd.detect_count");
  out.detect_ns_total = reg.value(0, "fd.detect_latency_ns_total");
  out.promotions = reg.value(0, "repl.promotions");
  for (const auto& row : get_ns) out.get_ns.insert(out.get_ns.end(), row.begin(), row.end());
  for (const auto& row : put_ns) out.put_ns.insert(out.put_ns.end(), row.begin(), row.end());

  Digest& d = r.digest;
  for (const auto& row : get_ns) for (const auto v : row) d.add_signed(v);
  for (const auto& row : put_ns) for (const auto v : row) d.add_signed(v);
  for (const auto& row : acked) for (const auto v : row) d.add_signed(v);
  for (const auto& f : stack.engine().declared_failures()) {
    d.add_signed(f.pe);
    d.add_signed(f.at);
  }
  d.add_signed(out.lost);
  d.add(es.events);
  d.add(es.switches);
  return out;
}

double mean_detect_us(const ServeOutcome& out) {
  return out.detect_count == 0
             ? 0.0
             : static_cast<double>(out.detect_ns_total) /
                   static_cast<double>(out.detect_count) / 1e3;
}

RunReport run_serve_zipf_kill(const RunOptions& opts) {
  RunReport r;
  struct Rung {
    double offered_per_ms;
    LatencySummary get, put;
    bool keeps_up;
  };
  std::vector<Rung> rungs;
  bool all_complete = true, all_declared = true;
  std::int64_t lost = 0, under_replicated = 0, verified = 0;
  std::uint64_t fp = 0;
  bool every_rung_promoted = true;
  double detect_us = 0;
  std::int64_t unacked = 0, failed_gets = 0;
  for (const int rate : kServeRates) {
    const ServeShape sh = serve_shape(rate);
    const bool nominal = rungs.empty();
    const ServeOutcome out = serve_once(sh, opts, r, opts.traced && nominal);
    std::vector<sim::Time> lags = out.last_lag;
    std::sort(lags.begin(), lags.end());
    const sim::Time mean_gap = sh.period + sh.jitter / 2;
    Rung rung;
    rung.offered_per_ms = static_cast<double>(sh.images) * 1e6 /
                          static_cast<double>(mean_gap);
    rung.get = summarize(out.get_ns);
    rung.put = summarize(out.put_ns);
    // A growing backlog shows as clients that are still late at their
    // last arrival; the p90 client must be back within one gap.
    rung.keeps_up = percentile_sorted(lags, 90.0) < mean_gap;
    rungs.push_back(rung);
    all_complete = all_complete && out.completed;
    all_declared = all_declared && out.victim_declared;
    lost += out.lost;
    under_replicated += out.under_replicated;
    verified += out.verified_keys;
    fp += out.false_positives;
    every_rung_promoted = every_rung_promoted && out.promotions >= 1;
    unacked += out.unacked_puts;
    failed_gets += out.failed_gets;
    r.attempted += out.ops;
    if (nominal) detect_us = mean_detect_us(out);
  }
  r.failed = unacked + failed_gets;
  add_check(r, "serve.runs_complete", all_complete, "every rung drained");
  add_check(r, "serve.victim_declared", all_declared,
            "the killed primary was declared failed in every rung");
  add_check(r, "serve.zero_lost_acked_writes", lost == 0 && verified > 0,
            std::to_string(lost) + " acknowledged increments lost over " +
                std::to_string(verified) + " audited keys");
  add_check(r, "serve.zero_false_positives", fp == 0,
            std::to_string(fp) + " live PEs declared failed");
  add_check(r, "serve.replication_restored", under_replicated == 0,
            std::to_string(under_replicated) + " shards under-replicated");
  add_check(r, "serve.failover_promoted", every_rung_promoted,
            "a replica was promoted in every rung");
  if (opts.traced) {
    r.layer.push_back({"net.fd.detect_latency_us", detect_us, "sim_us"});
    r.layer.push_back({"net.fd.false_positives", static_cast<double>(fp), "count"});
  }
  if (!all_ok(r)) return r;

  const double limit_ns = opts.put_p99_limit_us * 1e3;
  double max_rate = 0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& g = rungs[i];
    const bool meets = g.put.p99_supported &&
                       static_cast<double>(g.put.p99) <= limit_ns && g.keeps_up;
    if (meets) max_rate = std::max(max_rate, g.offered_per_ms);
    const std::string tag = "rate" + std::to_string(i) + ".";
    r.sim.push_back({tag + "offered_ops_per_ms", g.offered_per_ms, "1/ms"});
    r.sim.push_back({tag + "get_p99_us", static_cast<double>(g.get.p99) / 1e3, "sim_us"});
    r.sim.push_back({tag + "put_p99_us", static_cast<double>(g.put.p99) / 1e3, "sim_us"});
    r.sim.push_back({tag + "keeps_up", g.keeps_up ? 1.0 : 0.0, "bool"});
  }
  const Rung& nom = rungs.front();
  r.sim.push_back({"get_p50_us", static_cast<double>(nom.get.p50) / 1e3, "sim_us"});
  r.sim.push_back({"get_p99_us", static_cast<double>(nom.get.p99) / 1e3, "sim_us"});
  r.sim.push_back({"get_samples", static_cast<double>(nom.get.n), "count"});
  r.sim.push_back({"put_p50_us", static_cast<double>(nom.put.p50) / 1e3, "sim_us"});
  r.sim.push_back({"put_p99_us", static_cast<double>(nom.put.p99) / 1e3, "sim_us"});
  r.sim.push_back({"put_samples", static_cast<double>(nom.put.n), "count"});
  r.sim.push_back({"put_tail_pct", nom.put.tail.pct, "%"});
  r.sim.push_back({"put_tail_us", static_cast<double>(nom.put.tail.value) / 1e3, "sim_us"});
  r.sim.push_back({"max_rate_ops_per_ms", max_rate, "1/ms"});
  r.sim.push_back({"fd_detect_latency_us", detect_us, "sim_us"});
  for (const auto& m : r.sim) r.digest.add_double(m.value);
  return r;
}

}  // namespace

apps::dht::Config dht_lock_1k_config(std::uint64_t seed) {
  apps::dht::Config c;
  c.buckets_per_image = 64;
  c.updates_per_image = 256;
  c.locks_per_image = 8;
  c.hot_percent = 40;
  c.hot_keys = 4;
  c.seed = seed;
  return c;
}

std::vector<Metric> serve_detector_probe(std::uint64_t seed) {
  RunOptions opts;
  opts.seed = seed;
  RunReport scratch;
  const ServeOutcome out =
      serve_once(serve_shape(kServeRates[0]), opts, scratch, false);
  if (!out.completed || !out.victim_declared) {
    throw std::runtime_error("detector probe: the serve run did not finish");
  }
  return {{"net.fd.detect_latency_us", mean_detect_us(out), "sim_us"},
          {"net.fd.false_positives", static_cast<double>(out.false_positives),
           "count"}};
}

RunReport run_workload(const std::string& name, const RunOptions& opts) {
  if (name == "himeno_16k") return run_himeno_16k(opts);
  if (name == "coll_16k") return run_coll_16k(opts);
  if (name == "dht_lock_1k") return run_dht_lock_1k(opts);
  if (name == "serve_zipf_kill") return run_serve_zipf_kill(opts);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
