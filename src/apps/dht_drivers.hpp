// Collective setup helpers that build a dht::Table over each runtime:
// the UHCAF runtime (any conduit) and the Cray-CAF baseline. Both zero the
// entry slice and build one MCS/ticket lock per stripe.
#pragma once

#include "apps/dht.hpp"
#include "caf/runtime.hpp"
#include "craycaf/craycaf.hpp"

namespace apps::dht {

// run_updates_resilient assumes both runtimes agree on stat= numerics.
static_assert(static_cast<int>(caf::kStatOk) == craycaf::kStatOk &&
                  static_cast<int>(caf::kStatFailedImage) ==
                      craycaf::kStatFailedImage,
              "dht degraded mode relies on caf/craycaf stat code alignment");

/// Collective: call from every image fiber after rt.init().
inline Table<caf::Runtime, caf::CoLock> make_caf_table(caf::Runtime& rt,
                                                       const Config& cfg) {
  const std::uint64_t data_off = rt.allocate_coarray_bytes(
      static_cast<std::size_t>(cfg.buckets_per_image) * sizeof(Entry));
  rt.conduit().clear(data_off, static_cast<std::size_t>(cfg.buckets_per_image) *
                                   sizeof(Entry));
  std::vector<caf::CoLock> locks;
  locks.reserve(static_cast<std::size_t>(cfg.locks_per_image));
  for (int i = 0; i < cfg.locks_per_image; ++i) {
    locks.push_back(rt.make_lock());
  }
  rt.sync_all();
  return Table<caf::Runtime, caf::CoLock>(rt, cfg, data_off, std::move(locks));
}

inline Table<craycaf::Runtime, craycaf::CoLock> make_craycaf_table(
    craycaf::Runtime& rt, const Config& cfg) {
  const std::uint64_t data_off = rt.allocate(
      static_cast<std::size_t>(cfg.buckets_per_image) * sizeof(Entry));
  rt.clear(data_off,
           static_cast<std::size_t>(cfg.buckets_per_image) * sizeof(Entry));
  std::vector<craycaf::CoLock> locks;
  locks.reserve(static_cast<std::size_t>(cfg.locks_per_image));
  for (int i = 0; i < cfg.locks_per_image; ++i) {
    locks.push_back(rt.make_lock());
  }
  rt.sync_all();
  return Table<craycaf::Runtime, craycaf::CoLock>(rt, cfg, data_off,
                                                  std::move(locks));
}

}  // namespace apps::dht
