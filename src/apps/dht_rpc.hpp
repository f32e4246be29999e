// DHT updates re-expressed as asynchronous remote execution (DESIGN.md
// §4f): instead of lock / get / modify / put / unlock against the owning
// image (apps/dht.hpp — the paper's §V-C one-sided design), each update
// ships the *operation* to the owner as caf::rpc and the owner's handler
// mutates the bucket locally. Atomicity falls out of handler serialization
// at the target — no coarray lock traffic at all — at the cost of one
// round trip per update and handler CPU billed on the owner.
//
// The update stream (seed, key derivation, hot-key skew) is byte-for-byte
// the stream dht::Table draws, so the two designs are comparable head to
// head: because the key <-> (owner, bucket) mapping is a bijection and the
// count increment commutes, the final table contents are bit-identical to
// the one-sided design's under any completion order (asserted by the
// conformance tests, and the basis of the EXPERIMENTS.md attribution
// table).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/dht.hpp"
#include "caf/rpc.hpp"
#include "caf/runtime.hpp"
#include "sim/rng.hpp"

namespace apps::dhtrpc {

using dht::Config;
using dht::Entry;

/// The remote update body. Runs at the bucket's owner; `view` resolves to
/// the owner's entry slice. Communication-free, as RPC handlers must be.
/// Returns the bucket's post-update count (exercises the reply path; a
/// production table would use rpc_ff here and a flush at the end).
inline constexpr auto kUpdateFn =
    [](caf::sym_view<Entry> view, std::int64_t bucket, std::int64_t key,
       std::int64_t compute_ns) -> std::int64_t {
  caf::rpc_charge(compute_ns);  // the hash/compare work moves to the owner
  Entry& e = view[static_cast<std::size_t>(bucket)];
  e.key = key;
  e.count += 1;
  return e.count;
};

/// The async-RPC table. Mirrors dht::Table's surface where it matters
/// (run_updates / local_count_sum / config) so drivers can run either
/// design over the same workload.
class Table {
 public:
  Table(caf::Runtime& rt, Config cfg, std::uint64_t data_off, int window)
      : rt_(rt), cfg_(cfg), data_off_(data_off), window_(window) {}

  /// One image's share of the benchmark: `updates_per_image` asynchronous
  /// remote updates, at most `window` in flight; when the window fills, a
  /// when_all fan-in drains it. Returns the number of updates whose reply
  /// confirmed a positive count (== updates_per_image on a fault-free run).
  std::int64_t run_updates() {
    const int me = rt_.this_image();
    const int n = rt_.num_images();
    sim::Rng rng(cfg_.seed * 1000003u + static_cast<std::uint64_t>(me));
    const std::int64_t global_buckets =
        cfg_.buckets_per_image * static_cast<std::int64_t>(n);
    const caf::sym_view<Entry> view{
        data_off_, static_cast<std::uint32_t>(cfg_.buckets_per_image)};
    std::int64_t confirmed = 0;
    std::vector<caf::future<std::int64_t>> window;
    window.reserve(static_cast<std::size_t>(window_));
    const auto drain = [&] {
      auto counts = caf::when_all(std::move(window)).get();
      for (const std::int64_t c : counts) {
        if (c > 0) ++confirmed;
      }
      window.clear();
    };
    for (int u = 0; u < cfg_.updates_per_image; ++u) {
      const bool hot =
          rng.below(100) < static_cast<std::uint64_t>(cfg_.hot_percent);
      const std::int64_t key = static_cast<std::int64_t>(
          hot ? rng.below(static_cast<std::uint64_t>(cfg_.hot_keys))
              : rng.below(static_cast<std::uint64_t>(global_buckets)));
      const int owner = static_cast<int>(key / cfg_.buckets_per_image) + 1;
      const std::int64_t bucket = key % cfg_.buckets_per_image;
      window.push_back(caf::rpc(rt_, owner, kUpdateFn, view, bucket, key,
                                static_cast<std::int64_t>(cfg_.compute_ns)));
      if (window.size() >= static_cast<std::size_t>(window_)) drain();
    }
    if (!window.empty()) drain();
    return confirmed;
  }

  /// Sums the counts in this image's slice (call after a final sync_all);
  /// the global sum must equal num_images * updates_per_image.
  std::int64_t local_count_sum() {
    const auto* entries =
        reinterpret_cast<const Entry*>(rt_.local_addr(data_off_));
    std::int64_t s = 0;
    for (std::int64_t b = 0; b < cfg_.buckets_per_image; ++b) {
      s += entries[b].count;
    }
    return s;
  }

  const Config& config() const { return cfg_; }
  std::uint64_t data_offset() const { return data_off_; }

 private:
  caf::Runtime& rt_;
  Config cfg_;
  std::uint64_t data_off_;
  int window_;
};

/// Collective: call from every image fiber after rt.init() (which must have
/// run with Options::rpc.enabled). Allocates and zeroes the entry slice —
/// the same slice layout as make_caf_table, minus the lock arrays the RPC
/// design does not need.
inline Table make_rpc_table(caf::Runtime& rt, const Config& cfg,
                            int window = 16) {
  const std::uint64_t data_off = rt.allocate_coarray_bytes(
      static_cast<std::size_t>(cfg.buckets_per_image) * sizeof(Entry));
  rt.conduit().clear(data_off, static_cast<std::size_t>(cfg.buckets_per_image) *
                                   sizeof(Entry));
  rt.sync_all();
  return Table(rt, cfg, data_off, window);
}

}  // namespace apps::dhtrpc
