#include "layers.hpp"

#include <cstddef>
#include <string>

#include "obs/analyzer.hpp"
#include "obs/obs.hpp"

namespace perfbench {

void accumulate(caf::ImageStats& sum, const caf::ImageStats& s) {
  sum.puts += s.puts;
  sum.gets += s.gets;
  sum.strided_puts += s.strided_puts;
  sum.strided_gets += s.strided_gets;
  sum.amos += s.amos;
  sum.put_bytes += s.put_bytes;
  sum.get_bytes += s.get_bytes;
  sum.locks_acquired += s.locks_acquired;
  sum.syncs += s.syncs;
  sum.agg_staged += s.agg_staged;
  sum.agg_flushes += s.agg_flushes;
  sum.coalesced_runs += s.coalesced_runs;
  sum.fences += s.fences;
}

namespace {

std::uint64_t registry_sum(int images, const char* name) {
  std::uint64_t s = 0;
  for (int pe = 0; pe < images; ++pe) s += obs::registry().value(pe, name);
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void add_layers(RunReport& r, const sim::EngineStats& es,
                const caf::ImageStats& stats, int images) {
  auto add = [&r](std::string name, double v, const char* unit) {
    r.layer.push_back({std::move(name), v, unit});
  };
  auto count = [&add](std::string name, std::uint64_t v) {
    add(std::move(name), static_cast<double>(v), "count");
  };

  // sim: the engine's work. Host time per event is taken from the
  // untraced runs (run.py), so obs tracing does not count in it.
  count("sim.events", es.events);
  count("sim.switches", es.switches);
  add("sim.stack_bytes_mapped", static_cast<double>(es.stack_bytes_mapped), "bytes");
  add("sim.stack_bytes_peak", static_cast<double>(es.stack_bytes_peak), "bytes");

  // fabric / net: the wire records obs keeps per source PE.
  const auto& session = obs::detail::session();
  std::uint64_t wire_total = 0, wire_kept = 0;
  double wire_ns = 0;
  for (const obs::Ring& ring : session.wire_rings) {
    wire_total += ring.total();
    ring.for_each([&](const obs::Event& e) {
      ++wire_kept;
      wire_ns += static_cast<double>(e.t1 - e.t0);
    });
  }
  count("fabric.wire_msgs", wire_total);
  add("net.wire_sim_us_mean", ratio(wire_ns, static_cast<double>(wire_kept)) / 1e3,
      "sim_us");

  // caf: ImageStats sums and the RMA pipeline's quiet elision.
  count("caf.puts", stats.puts);
  count("caf.strided_puts", stats.strided_puts);
  count("caf.amos", stats.amos);
  count("caf.locks_acquired", stats.locks_acquired);
  count("caf.syncs", stats.syncs);
  count("caf.fences", stats.fences);
  add("caf.rma.quiet_elided_ratio",
      ratio(static_cast<double>(registry_sum(images, "rma.quiet_elided")),
            static_cast<double>(registry_sum(images, "rma.quiet_calls"))),
      "ratio");
  count("caf.repl.write_retries", registry_sum(images, "repl.write_retries"));
  count("caf.repl.read_fallbacks", registry_sum(images, "repl.read_fallbacks"));
  count("caf.repl.lock_reclaims", registry_sum(images, "repl.lock_reclaims"));

  // obs analyzer: shares of attributed simulated time per kind of wait.
  const obs::Attribution att = obs::analyze();
  auto share = [&](obs::Group g) {
    return ratio(att.total.by_group[static_cast<std::size_t>(g)],
                 att.total.wall_ns);
  };
  add("caf.quiet_stall_frac", share(obs::Group::kQuietStall), "ratio");
  add("caf.coll_stall_frac", share(obs::Group::kCollStall), "ratio");
  add("caf.lock_wait_frac", share(obs::Group::kLockWait), "ratio");
  add("caf.sync_stall_frac", share(obs::Group::kSyncStall), "ratio");
  add("net.wire_frac", share(obs::Group::kWire), "ratio");
  add("apps.compute_frac", share(obs::Group::kCompute), "ratio");
}

}  // namespace perfbench
