#include "caf/replica.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "fabric/domain.hpp"
#include "obs/obs.hpp"

namespace caf::repl {

// ---------------------------------------------------------------------------
// ReplicaMap
// ---------------------------------------------------------------------------

ReplicaMap::ReplicaMap(int nimages, int cores_per_node, int replication,
                       std::int64_t num_shards)
    : n_(nimages), cpn_(cores_per_node), r_(replication) {
  if (nimages <= 0) throw std::invalid_argument("ReplicaMap: nimages <= 0");
  if (cores_per_node <= 0) {
    throw std::invalid_argument("ReplicaMap: cores_per_node <= 0");
  }
  if (replication <= 0) {
    throw std::invalid_argument("ReplicaMap: replication <= 0");
  }
  if (num_shards <= 0) {
    throw std::invalid_argument("ReplicaMap: num_shards <= 0");
  }
  dead_.assign(static_cast<std::size_t>(n_), 0);
  owners_.resize(static_cast<std::size_t>(num_shards));
  for (std::int64_t s = 0; s < num_shards; ++s) {
    fill(owners_[static_cast<std::size_t>(s)], s, dead_);
  }
}

void ReplicaMap::fill_impl(std::vector<int>& owners, std::int64_t shard, int n,
                           int cpn, int r, const std::vector<char>& dead) {
  const int home = static_cast<int>(shard % n);
  // Pass 0 admits only images on nodes not yet represented among the
  // owners; pass 1 relaxes that so single-node runs still reach R.
  for (int pass = 0; pass < 2 && static_cast<int>(owners.size()) < r; ++pass) {
    for (int d = 0; d < n && static_cast<int>(owners.size()) < r; ++d) {
      const int pe = (home + d) % n;
      if (dead[static_cast<std::size_t>(pe)] != 0) continue;
      if (std::find(owners.begin(), owners.end(), pe) != owners.end()) {
        continue;
      }
      if (pass == 0) {
        const int node = pe / cpn;
        const bool clash =
            std::any_of(owners.begin(), owners.end(),
                        [&](int o) { return o / cpn == node; });
        if (clash) continue;
      }
      owners.push_back(pe);
    }
  }
}

void ReplicaMap::fill(std::vector<int>& owners, std::int64_t shard,
                      const std::vector<char>& dead) const {
  fill_impl(owners, shard, n_, cpn_, r_, dead);
}

std::vector<int> ReplicaMap::compute_owners(std::int64_t shard, int nimages,
                                            int cores_per_node, int replication,
                                            const std::vector<int>& declared) {
  std::vector<char> dead(static_cast<std::size_t>(nimages), 0);
  std::vector<int> owners;
  fill_impl(owners, shard, nimages, cores_per_node, replication, dead);
  for (const int pe : declared) {
    if (pe < 0 || pe >= nimages) continue;
    dead[static_cast<std::size_t>(pe)] = 1;
    const auto it = std::find(owners.begin(), owners.end(), pe);
    if (it == owners.end()) continue;
    // Erasing preserves list order: the old first replica becomes the new
    // primary, and one live non-owner is appended as the refill target.
    owners.erase(it);
    fill_impl(owners, shard, nimages, cores_per_node, replication, dead);
  }
  return owners;
}

const std::vector<int>& ReplicaMap::owners(std::int64_t shard,
                                           sim::Engine& eng) {
  const auto& declared = eng.declared_failures();
  while (consumed_declared_ < declared.size()) {
    const int pe = declared[consumed_declared_++].pe;
    if (pe < 0 || pe >= n_) continue;
    dead_[static_cast<std::size_t>(pe)] = 1;
    for (std::size_t s = 0; s < owners_.size(); ++s) {
      auto& ow = owners_[s];
      const auto it = std::find(ow.begin(), ow.end(), pe);
      if (it == ow.end()) continue;
      const bool was_primary = it == ow.begin();
      ow.erase(it);
      fill(ow, static_cast<std::int64_t>(s), dead_);
      if (was_primary && !ow.empty()) ++promotions_;
    }
  }
  return owners_[static_cast<std::size_t>(shard)];
}

// ---------------------------------------------------------------------------
// ShardStore
// ---------------------------------------------------------------------------

ShardStore::ShardStore(Runtime& rt, Options opts)
    : rt_(rt),
      o_(opts),
      map_(rt.num_images(), rt.conduit().sw().cores_per_node, opts.replication,
           opts.num_shards) {
  if (o_.slots_per_shard <= 0) {
    throw std::invalid_argument("ShardStore: slots_per_shard <= 0");
  }
  if (o_.slot_bytes == 0) {
    throw std::invalid_argument("ShardStore: slot_bytes == 0");
  }
  if (o_.num_locks <= 0) {
    throw std::invalid_argument("ShardStore: num_locks <= 0");
  }
  const auto ns = static_cast<std::size_t>(o_.num_shards);
  data_off_ = rt_.allocate_coarray_bytes(ns * shard_bytes());
  seq_off_ = rt_.allocate_coarray_bytes(ns * sizeof(std::int64_t));
  synced_off_ = rt_.allocate_coarray_bytes(ns * sizeof(std::int64_t));
  rt_.conduit().clear(data_off_, ns * shard_bytes());
  rt_.conduit().clear(seq_off_, ns * sizeof(std::int64_t));
  // Initial owners hold a trivially complete copy (everything is zero);
  // everyone else starts unsynced and earns the flag through anti-entropy.
  sim::Engine& eng = rt_.conduit().engine();
  const int me0 = rt_.this_image() - 1;
  for (std::int64_t s = 0; s < o_.num_shards; ++s) {
    const auto& ow = map_.owners(s, eng);
    const std::int64_t v =
        std::find(ow.begin(), ow.end(), me0) != ow.end() ? 1 : 0;
    std::memcpy(rt_.local_addr(synced_off_ +
                               static_cast<std::uint64_t>(s) * sizeof(v)),
                &v, sizeof(v));
  }
  locks_.reserve(static_cast<std::size_t>(o_.num_locks));
  for (int i = 0; i < o_.num_locks; ++i) locks_.push_back(rt_.make_lock());
  scratch_.resize(o_.slot_bytes);
  auto& reg = obs::registry();
  c_writes_ = &reg.counter(me0, "repl.writes");
  c_writes_acked_ = &reg.counter(me0, "repl.writes_acked");
  c_write_retries_ = &reg.counter(me0, "repl.write_retries");
  c_write_failures_ = &reg.counter(me0, "repl.write_failures");
  c_chain_puts_ = &reg.counter(me0, "repl.chain_puts");
  c_chain_refences_ = &reg.counter(me0, "repl.chain_refences");
  c_lock_reclaims_ = &reg.counter(me0, "repl.lock_reclaims");
  c_reads_ = &reg.counter(me0, "repl.reads");
  c_read_primary_ = &reg.counter(me0, "repl.read_primary");
  c_read_fallbacks_ = &reg.counter(me0, "repl.read_fallbacks");
  c_read_stale_skips_ = &reg.counter(me0, "repl.read_stale_skips");
  c_read_failures_ = &reg.counter(me0, "repl.read_failures");
  c_ae_pulls_ = &reg.counter(me0, "repl.ae_pulls");
  c_ae_bytes_ = &reg.counter(me0, "repl.ae_bytes");
  c_promotions_ = &reg.counter(me0, "repl.promotions");
  rt_.sync_all();
}

std::int64_t ShardStore::local_seq(std::int64_t shard) {
  std::int64_t v = 0;
  std::memcpy(&v,
              rt_.local_addr(seq_off_ +
                             static_cast<std::uint64_t>(shard) * sizeof(v)),
              sizeof(v));
  return v;
}

std::int64_t ShardStore::local_synced(std::int64_t shard) {
  std::int64_t v = 0;
  std::memcpy(&v,
              rt_.local_addr(synced_off_ +
                             static_cast<std::uint64_t>(shard) * sizeof(v)),
              sizeof(v));
  return v;
}

bool ShardStore::chain_and_fence(const std::vector<int>& owners,
                                 int primary_image, std::uint64_t entry_off,
                                 std::uint64_t seq_cell,
                                 const void* slot_bytes_buf, std::int64_t seq) {
  // A dead *replica* never fails the chain: membership already dropped it
  // from the owner list (or will), and anti-entropy re-replicates. Only a
  // dead primary aborts — the caller must retry at the promoted one.
  for (int round = 0; round < o_.replication + 1; ++round) {
    bool primary_dead = false;
    for (const int pe : owners) {
      const int img = pe + 1;
      if (rt_.image_status(img) != kStatOk) continue;
      try {
        rt_.put_bytes(img, entry_off, slot_bytes_buf, o_.slot_bytes);
        ++*c_chain_puts_;
        if (img != primary_image) {
          rt_.put_bytes(img, seq_cell, &seq, sizeof(seq));
        }
      } catch (const fabric::PeerFailedError&) {
        if (img == primary_image) primary_dead = true;
      }
    }
    if (primary_dead) return false;
    if (rt_.sync_memory_stat() == kStatOk) return true;
    // The fence tripped on a dead peer. Live-target puts still completed
    // (sync_memory_stat's contract); if the primary survived, re-issue to
    // whoever is still standing and fence again so the ack stays honest.
    if (rt_.image_status(primary_image) != kStatOk) return false;
    ++*c_chain_refences_;
  }
  return false;
}

bool ShardStore::update(std::int64_t shard, std::int64_t slot,
                        const std::function<void(void*)>& modify) {
  ++*c_writes_;
  sim::Engine& eng = rt_.conduit().engine();
  const std::uint64_t entry_off =
      data_off_ + static_cast<std::uint64_t>(shard) * shard_bytes() +
      static_cast<std::uint64_t>(slot) * o_.slot_bytes;
  const std::uint64_t seq_cell =
      seq_off_ + static_cast<std::uint64_t>(shard) * sizeof(std::int64_t);
  const CoLock lck = locks_[static_cast<std::size_t>(
      shard % static_cast<std::int64_t>(o_.num_locks))];
  // Each failover consumes at most one attempt per owner generation; +2
  // absorbs the lock-reclaim and stale-cache races.
  const int max_attempts = rt_.num_images() + 2;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) ++*c_write_retries_;
    const auto& owners = map_.owners(shard, eng);
    if (owners.empty()) break;  // every candidate image is dead
    const int primary = owners[0] + 1;
    if (rt_.image_status(primary) != kStatOk) continue;  // stale; re-resolve
    const int lst = rt_.lock_stat(lck, primary);
    if (lst == kStatFailedImage) {
      if (!rt_.holds_lock(lck, primary)) continue;  // lock's home image died
      ++*c_lock_reclaims_;  // reclaimed from a dead holder; we DO hold it
    } else if (lst != kStatOk) {
      break;
    }
    // Sequence + read-modify at the primary, all under the stripe lock.
    bool primary_ok = true;
    std::int64_t seq = 0;
    try {
      seq = rt_.atomic_fetch_add(primary, seq_cell, 1) + 1;
    } catch (const fabric::PeerFailedError&) {
      primary_ok = false;
    }
    if (primary_ok) {
      primary_ok = rt_.get_bytes_stat(scratch_.data(), primary, entry_off,
                                      o_.slot_bytes) == kStatOk;
    }
    if (!primary_ok) {
      (void)rt_.unlock_stat(lck, primary);
      continue;  // primary died under us; retry at the promoted one
    }
    modify(scratch_.data());
    const bool chained = chain_and_fence(owners, primary, entry_off, seq_cell,
                                         scratch_.data(), seq);
    // If the chain fenced clean, the bytes are on every surviving owner —
    // the write is durable even if the primary dies during this unlock.
    (void)rt_.unlock_stat(lck, primary);
    if (!chained) continue;
    ++*c_writes_acked_;
    return true;
  }
  ++*c_write_failures_;
  return false;
}

bool ShardStore::read(void* out, std::int64_t shard, std::int64_t slot) {
  ++*c_reads_;
  sim::Engine& eng = rt_.conduit().engine();
  const std::uint64_t entry_off =
      data_off_ + static_cast<std::uint64_t>(shard) * shard_bytes() +
      static_cast<std::uint64_t>(slot) * o_.slot_bytes;
  const int max_attempts = rt_.num_images() + 2;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const auto& ow = map_.owners(shard, eng);
    if (ow.empty()) break;
    const int primary = ow[0] + 1;
    int src = 0;
    if (rt_.image_status(primary) == kStatOk && !rt_.image_suspect(primary)) {
      src = primary;
      ++*c_read_primary_;
    } else {
      // Primary declared or suspect: serve from the first live replica
      // holding a synced copy. Suspicion is advisory — it only steers
      // reads, never membership.
      for (std::size_t i = 1; i < ow.size(); ++i) {
        const int img = ow[i] + 1;
        if (rt_.image_status(img) != kStatOk || rt_.image_suspect(img)) {
          continue;
        }
        std::int64_t sy = 0;
        const std::uint64_t sy_off =
            synced_off_ + static_cast<std::uint64_t>(shard) * sizeof(sy);
        if (rt_.get_bytes_stat(&sy, img, sy_off, sizeof(sy)) != kStatOk) {
          continue;
        }
        if (sy < 1) {
          ++*c_read_stale_skips_;
          continue;
        }
        src = img;
        ++*c_read_fallbacks_;
        break;
      }
      // No synced replica reachable: a suspect-but-undeclared primary is
      // still the best copy — pay the possible stall rather than miss.
      if (src == 0 && rt_.image_status(primary) == kStatOk) {
        src = primary;
        ++*c_read_primary_;
      }
    }
    if (src == 0) continue;  // owner set mid-transition; re-resolve
    if (rt_.get_bytes_stat(out, src, entry_off, o_.slot_bytes) == kStatOk) {
      return true;
    }
  }
  ++*c_read_failures_;
  return false;
}

bool ShardStore::pull_shard(std::int64_t shard, int lock_image,
                            int src_image) {
  obs::Span sp(obs::Cat::kReplPull, shard_bytes(),
               static_cast<std::uint32_t>(src_image - 1));
  const CoLock lck = locks_[static_cast<std::size_t>(
      shard % static_cast<std::int64_t>(o_.num_locks))];
  const int lst = rt_.lock_stat(lck, lock_image);
  if (lst == kStatFailedImage && !rt_.holds_lock(lck, lock_image)) {
    return false;  // lock home died; caller re-resolves next pass
  }
  if (lst != kStatOk && lst != kStatFailedImage) return false;
  bool ok = false;
  std::int64_t src_seq = 0;
  const std::uint64_t seq_cell =
      seq_off_ + static_cast<std::uint64_t>(shard) * sizeof(src_seq);
  const std::uint64_t shard_off =
      data_off_ + static_cast<std::uint64_t>(shard) * shard_bytes();
  if (rt_.get_bytes_stat(&src_seq, src_image, seq_cell, sizeof(src_seq)) ==
      kStatOk) {
    // Snapshot the whole shard under the writer-excluding stripe lock, then
    // install bytes + seq + synced locally (own-image memory; plain stores).
    std::vector<std::byte> snap(shard_bytes());
    if (rt_.get_bytes_stat(snap.data(), src_image, shard_off, snap.size()) ==
        kStatOk) {
      std::memcpy(rt_.local_addr(shard_off), snap.data(), snap.size());
      std::memcpy(rt_.local_addr(seq_cell), &src_seq, sizeof(src_seq));
      const std::int64_t one = 1;
      std::memcpy(rt_.local_addr(synced_off_ + static_cast<std::uint64_t>(
                                                   shard) *
                                                   sizeof(one)),
                  &one, sizeof(one));
      ++*c_ae_pulls_;
      *c_ae_bytes_ += snap.size();
      ok = true;
    }
  }
  (void)rt_.unlock_stat(lck, lock_image);
  return ok;
}

int ShardStore::anti_entropy(int max_pulls) {
  sim::Engine& eng = rt_.conduit().engine();
  const int me0 = rt_.this_image() - 1;
  // Surface the map's promotion count through the registry as a side
  // effect of the sweep (owners() replays any pending declarations).
  int pulls = 0;
  for (std::int64_t s = 0; s < o_.num_shards && pulls < max_pulls; ++s) {
    const auto& ow = map_.owners(s, eng);
    if (std::find(ow.begin(), ow.end(), me0) == ow.end()) continue;
    if (local_synced(s) >= 1) continue;
    const int primary = ow[0] + 1;
    if (primary != rt_.this_image()) {
      // Replica catching up: pull from the primary under its stripe lock.
      if (rt_.image_status(primary) != kStatOk) continue;
      if (pull_shard(s, primary, primary)) ++pulls;
    } else {
      // Unsynced primary: only possible when every prior owner died before
      // we caught up. Pull from any other synced owner, locking at home
      // (us) so writers are excluded. No synced source => that shard's
      // history is beyond R failures; leave it unsynced rather than lie.
      for (std::size_t i = 1; i < ow.size(); ++i) {
        const int img = ow[i] + 1;
        if (rt_.image_status(img) != kStatOk) continue;
        std::int64_t sy = 0;
        const std::uint64_t sy_off =
            synced_off_ + static_cast<std::uint64_t>(s) * sizeof(sy);
        if (rt_.get_bytes_stat(&sy, img, sy_off, sizeof(sy)) != kStatOk) {
          continue;
        }
        if (sy < 1) continue;
        if (pull_shard(s, rt_.this_image(), img)) {
          ++pulls;
          break;
        }
      }
    }
  }
  *c_promotions_ = map_.promotions();
  return pulls;
}

int ShardStore::under_replicated_local() {
  sim::Engine& eng = rt_.conduit().engine();
  const int me0 = rt_.this_image() - 1;
  int debt = 0;
  for (std::int64_t s = 0; s < o_.num_shards; ++s) {
    const auto& ow = map_.owners(s, eng);
    if (std::find(ow.begin(), ow.end(), me0) == ow.end()) continue;
    if (local_synced(s) < 1) ++debt;
  }
  return debt;
}

}  // namespace caf::repl
