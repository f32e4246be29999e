#include "caf/collectives.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace caf {

int CollectiveEngine::ceil_log2(int x) {
  int r = 0;
  while ((1 << r) < x) ++r;
  return r;
}

void CollectiveEngine::init() {
  n_ = conduit_.nranks();
  const int cores = std::max(1, conduit_.sw().cores_per_node);
  node_size_ = std::min(cores, n_);
  num_nodes_ = (n_ + node_size_ - 1) / node_size_;
  levels_ = std::max(1, ceil_log2(n_));
  rd_rounds_ = levels_ + 2;  // rounds + fold-in slot + fold-return slot
  per_rank_.resize(static_cast<std::size_t>(n_));

  // One collective symmetric allocation for every staging area. allocate()
  // maps to shmalloc, which carries an implicit barrier — 18 separate calls
  // would charge every program 18 startup barriers (visible in the fig9 DHT
  // totals at 1024 images) where one suffices. Offsets are carved locally;
  // the arithmetic is identical on every image, so the layout stays
  // symmetric. Every size below is a multiple of 8, so every area is 8-byte
  // aligned.
  //
  // The control block (every flag, counter and ack word) is carved first,
  // packed into well under 4 KiB, ahead of the slot and bank arrays. Behind
  // the 8-KiB slots each flag array would sit on a page of its own, and an
  // image would fault in six pages for flags alone.
  const std::size_t depth = kPipeDepth;
  std::size_t total = 0;
  auto carve = [&total](std::size_t bytes) {
    const std::size_t off = total;
    total += bytes;
    return off;
  };
  const std::size_t word = sizeof(std::int64_t);
  const std::size_t bc_flag_rel = carve(kBcBanks * word);
  const std::size_t tree_flag_rel =
      carve(static_cast<std::size_t>(levels_) * word);
  const std::size_t gather_flag_rel =
      carve(static_cast<std::size_t>(node_size_) * word);
  const std::size_t rd_flag_rel =
      carve(static_cast<std::size_t>(rd_rounds_) * word);
  const std::size_t flat_ctr_rel = carve(word);
  const std::size_t bar_cells_rel =
      carve(static_cast<std::size_t>(levels_ + 1) * word);
  const std::size_t bar_gather_rel = carve(word);
  const std::size_t bar_release_rel = carve(word);
  const std::size_t pd_flag_rel = carve(word);
  const std::size_t pd_ack_rel = carve(2 * word);
  const std::size_t pu_flag_rel = carve(2 * word);
  const std::size_t pu_ack_rel = carve(word);
  const std::size_t control_bytes = total;
  const std::size_t bc_slot_rel = carve(kBcBanks * kSlotBytes);
  const std::size_t tree_slot_rel =
      carve(static_cast<std::size_t>(levels_) * kSlotBytes);
  const std::size_t gather_slot_rel =
      carve(static_cast<std::size_t>(node_size_) * kRdMaxBytes);
  const std::size_t rd_slot_rel =
      carve(static_cast<std::size_t>(rd_rounds_) * kRdMaxBytes);
  const std::size_t pd_bank_rel = carve(depth * kPipeChunk);
  const std::size_t pu_bank_rel = carve(2 * depth * kPipeChunk);
  const std::uint64_t base = conduit_.allocate(total);
  control_ = Block{base, control_bytes};
  bc_slot_off_ = base + bc_slot_rel;
  bc_flag_off_ = base + bc_flag_rel;
  tree_slot_off_ = base + tree_slot_rel;
  tree_flag_off_ = base + tree_flag_rel;
  gather_slot_off_ = base + gather_slot_rel;
  gather_flag_off_ = base + gather_flag_rel;
  rd_slot_off_ = base + rd_slot_rel;
  rd_flag_off_ = base + rd_flag_rel;
  flat_ctr_off_ = base + flat_ctr_rel;
  bar_cells_off_ = base + bar_cells_rel;
  bar_gather_off_ = base + bar_gather_rel;
  bar_release_off_ = base + bar_release_rel;
  pd_bank_off_ = base + pd_bank_rel;
  pd_flag_off_ = base + pd_flag_rel;
  pd_ack_off_ = base + pd_ack_rel;
  pu_bank_off_ = base + pu_bank_rel;
  pu_flag_off_ = base + pu_flag_rel;
  pu_ack_off_ = base + pu_ack_rel;

  // Zero this image's control block; nobody puts into it until every image
  // left Runtime::init()'s closing barrier. Unlike the slot arrays it is
  // written here even when fresh: every image polls these words from its
  // first barrier on, and a poll of a never-written page maps the zero page,
  // so the first put into it takes a second, copy-on-write fault inside a
  // collective. Writing it now costs one fault per image during set-up
  // (coll_16k: 17k fewer minor faults in the run phase).
  std::memset(local(base), 0, control_bytes);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void CollectiveEngine::count_msg(int target, std::size_t n) {
  (void)n;
  CollTelemetry& t = state().tele;
  if (node_of(target) == node_of(me())) {
    ++t.intra_node_msgs;
    if (conduit_.direct_reachable(target)) ++t.direct_intra_msgs;
  } else {
    ++t.inter_node_msgs;
  }
}

void CollectiveEngine::send_payload(int target, std::uint64_t slot_off,
                                    const void* src, std::size_t n,
                                    std::uint64_t flag_off, std::int64_t gen) {
  count_msg(target, n);
  conduit_.put(target, slot_off, src, n, /*nbi=*/true);
  if (!opts_.per_target_completion) {
    // Pre-engine sequence: remote-complete the payload before releasing the
    // flag. One slow target stalls the whole fan-out behind this quiet.
    conduit_.quiet();
  }
  count_msg(target, sizeof gen);
  conduit_.put(target, flag_off, &gen, sizeof gen, /*nbi=*/true);
}

void CollectiveEngine::put_i64(int target, std::uint64_t off, std::int64_t v) {
  count_msg(target, sizeof v);
  conduit_.put(target, off, &v, sizeof v, /*nbi=*/true);
}

void CollectiveEngine::combine_buf(
    void* a, const void* b, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb) {
  auto* pa = static_cast<std::byte*>(a);
  const auto* pb = static_cast<const std::byte*>(b);
  for (std::size_t i = 0; i < nelems; ++i) {
    comb(pa + i * elem, pb + i * elem);
  }
}

std::int64_t CollectiveEngine::next_bc_gen() {
  PerRank& st = state();
  if (st.gen + 1 > st.win_base + kBcBanks) {
    // The next generation would wrap onto a ring bank last written at
    // gen+1-kBcBanks. A broadcast root has no receives to throttle it, so
    // only a global rendezvous bounds how far it can stream ahead of the
    // slowest consumer. Every image reaches this branch at the same op
    // (gen and win_base advance identically everywhere).
    barrier();
    st.win_base = st.gen;
  }
  return ++st.gen;
}

// ---------------------------------------------------------------------------
// Selector (priced off the SwProfile, like the strided planner)
// ---------------------------------------------------------------------------

double CollectiveEngine::inter_hop(std::size_t nbytes) const {
  const net::SwProfile& sw = conduit_.sw();
  return static_cast<double>(sw.put_overhead + sw.hw_latency) +
         static_cast<double>(nbytes) /
             (sw.link_bytes_per_ns * sw.bw_efficiency);
}

double CollectiveEngine::intra_hop(std::size_t nbytes) const {
  const net::SwProfile& sw = conduit_.sw();
  if (conduit_.rma_domain()->node_transport() != nullptr) {
    // Node-local shared-segment transport: an intra-node stage is a ring
    // handoff plus a NUMA-local copy, not a library put through the NIC
    // loopback. Priced optimistically at the local-domain rates — the
    // selector only needs the order of magnitude to prefer node-leader
    // trees, and the actual stage cost comes from the NodeChannel anyway.
    return static_cast<double>(net::NodeChannel::kSlotWrite +
                               net::NodeChannel::kRingPop +
                               sw.numa_local_latency) +
           static_cast<double>(nbytes) / sw.numa_local_bytes_per_ns;
  }
  return static_cast<double>(sw.put_overhead + sw.local_latency) +
         static_cast<double>(nbytes) /
             (sw.link_bytes_per_ns * sw.bw_efficiency);
}

CollAlgo CollectiveEngine::pick_broadcast(std::size_t nbytes) const {
  if (nbytes > kSlotBytes) return CollAlgo::kPipelined;
  if (node_size_ <= 1 || num_nodes_ <= 1) {
    return CollAlgo::kBinomial;
  }
  const net::SwProfile& sw = conduit_.sw();
  const int k = kKnomialRadix;
  int depth_k = 0;
  for (long long covered = 1; covered < num_nodes_; covered *= k) ++depth_k;
  const double binomial = ceil_log2(n_) * inter_hop(nbytes);
  const double two_level =
      depth_k * ((k - 1) * static_cast<double>(sw.per_msg_gap) +
                 inter_hop(nbytes)) +
      ceil_log2(node_size_) * intra_hop(nbytes);
  return two_level < binomial ? CollAlgo::kTwoLevel : CollAlgo::kBinomial;
}

CollAlgo CollectiveEngine::pick_reduce(std::size_t nbytes) const {
  if (nbytes > kSlotBytes) return CollAlgo::kPipelined;
  const bool small = nbytes <= kRdMaxBytes;
  if (node_size_ <= 1 || num_nodes_ <= 1) {
    // A flat machine view: recursive doubling halves the round count of
    // reduce-then-broadcast for payloads that fit its slots.
    return small ? CollAlgo::kRecursiveDoubling : CollAlgo::kBinomial;
  }
  if (!small) return CollAlgo::kBinomial;  // gather slots cap at kRdMaxBytes
  const net::SwProfile& sw = conduit_.sw();
  const int nm = node_size_;
  const double two_level =
      (nm - 1) * static_cast<double>(sw.per_msg_gap) + intra_hop(nbytes) +
      ceil_log2(num_nodes_) * inter_hop(nbytes) +
      ceil_log2(nm) * intra_hop(nbytes);
  const double binomial = 2.0 * ceil_log2(n_) * inter_hop(nbytes);
  return two_level < binomial ? CollAlgo::kTwoLevel : CollAlgo::kBinomial;
}

// ---------------------------------------------------------------------------
// k-nomial leader tree (indices into the rotated leader list, rooted at 0)
// ---------------------------------------------------------------------------

std::vector<int> CollectiveEngine::knomial_children(int v, int count) const {
  const int k = kKnomialRadix;
  // Position of v's lowest nonzero base-k digit bounds the children: v may
  // spawn v + d*k^j for every j below it. Emit larger subtrees first so the
  // deepest chains start earliest.
  int jlow = 0;
  if (v != 0) {
    long long p = 1;
    while ((v / p) % k == 0) {
      p *= k;
      ++jlow;
    }
  } else {
    long long p = 1;
    while (p < count) {
      p *= k;
      ++jlow;
    }
  }
  std::vector<int> kids;
  long long pj = 1;
  for (int j = 1; j < jlow; ++j) pj *= k;
  for (int j = jlow - 1; j >= 0; --j) {
    for (int d = 1; d < k; ++d) {
      const long long c = v + d * pj;
      if (c < count) kids.push_back(static_cast<int>(c));
    }
    pj /= k;
  }
  return kids;
}

int CollectiveEngine::knomial_parent(int v) const {
  const int k = kKnomialRadix;
  if (v == 0) return -1;
  long long p = 1;
  while ((v / p) % k == 0) p *= k;
  return static_cast<int>(v - ((v / p) % k) * p);
}

// ---------------------------------------------------------------------------
// Failure-aware team tree (membership-epoch cached)
// ---------------------------------------------------------------------------

const TreePlan& CollectiveEngine::plan_for(const std::vector<int>& members,
                                           int root0, std::uint64_t epoch) {
  TreePlan& plan = state().team_plan;
  if (plan.epoch == epoch && plan.root == root0 && plan.members == members) {
    return plan;
  }
  ++state().tele.team_plan_rebuilds;
  plan.epoch = epoch;
  plan.root = root0;
  plan.members = members;
  plan.parent.assign(static_cast<std::size_t>(n_), -1);
  plan.children.assign(static_cast<std::size_t>(n_), {});
  const bool root_live =
      std::find(members.begin(), members.end(), root0) != members.end();
  if (!root_live) return plan;  // edge-free: callers use the flat fallback
  // Node leaders: the root for its own node, the lowest live rank elsewhere
  // (members are ascending, so the first member seen per node wins).
  std::vector<int> leader_of_node(static_cast<std::size_t>(num_nodes_), -1);
  leader_of_node[static_cast<std::size_t>(node_of(root0))] = root0;
  for (const int m : members) {
    int& ldr = leader_of_node[static_cast<std::size_t>(node_of(m))];
    if (ldr < 0) ldr = m;
  }
  // Leader list rotated so the root's leader sits at index 0, remaining
  // leaders in ascending node order; a radix-R tree over the indices gives
  // the inter-node stage.
  std::vector<int> leaders{root0};
  for (int node = 0; node < num_nodes_; ++node) {
    const int ldr = leader_of_node[static_cast<std::size_t>(node)];
    if (ldr >= 0 && ldr != root0) leaders.push_back(ldr);
  }
  const int nl = static_cast<int>(leaders.size());
  for (int v = 1; v < nl; ++v) {
    const int p = knomial_parent(v);
    const int child = leaders[static_cast<std::size_t>(v)];
    const int par = leaders[static_cast<std::size_t>(p)];
    plan.parent[static_cast<std::size_t>(child)] = par;
    plan.children[static_cast<std::size_t>(par)].push_back(child);
  }
  // Intra-node stage: every non-leader member hangs off its node's leader.
  for (const int m : members) {
    const int ldr = leader_of_node[static_cast<std::size_t>(node_of(m))];
    if (m == ldr) continue;
    plan.parent[static_cast<std::size_t>(m)] = ldr;
    plan.children[static_cast<std::size_t>(ldr)].push_back(m);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

void CollectiveEngine::broadcast(void* data, std::size_t nbytes, int root0) {
  if (n_ <= 1 || nbytes == 0) return;
  ++state().tele.broadcasts;
  CollAlgo algo = opts_.broadcast == CollAlgo::kAuto ? pick_broadcast(nbytes)
                                                     : opts_.broadcast;
  if (algo == CollAlgo::kPipelined && nbytes > kPipeChunk) {
    pipe_bcast(data, nbytes, root0, next_gen());
    return;
  }
  if (algo == CollAlgo::kPipelined || algo == CollAlgo::kRecursiveDoubling) {
    algo = CollAlgo::kBinomial;  // not meaningful for (small) broadcasts
  }
  auto* bytes = static_cast<std::byte*>(data);
  std::size_t remaining = nbytes;
  while (remaining > 0) {
    const std::size_t chunk = std::min(remaining, kSlotBytes);
    const std::int64_t gen = next_bc_gen();
    switch (algo) {
      case CollAlgo::kFlat: bcast_flat(bytes, chunk, root0, gen); break;
      case CollAlgo::kTwoLevel: bcast_two_level(bytes, chunk, root0, gen); break;
      default: bcast_binomial(bytes, chunk, root0, gen); break;
    }
    bytes += chunk;
    remaining -= chunk;
  }
}

void CollectiveEngine::bcast_flat(void* data, std::size_t nbytes, int root0,
                                  std::int64_t gen) {
  const std::uint64_t slot = bc_slot(gen);
  const std::uint64_t flag = bc_flag(gen);
  if (me() == root0) {
    std::memcpy(local(slot), data, nbytes);
    for (int r = 0; r < n_; ++r) {
      if (r == root0) continue;
      send_payload(r, slot, local(slot), nbytes, flag, gen);
    }
  } else {
    wait_ge(flag, gen);
    std::memcpy(data, local(slot), nbytes);
  }
}

void CollectiveEngine::bcast_binomial(void* data, std::size_t nbytes,
                                      int root0, std::int64_t gen) {
  const std::uint64_t slot = bc_slot(gen);
  const std::uint64_t flag = bc_flag(gen);
  const int vr = (me() - root0 + n_) % n_;
  if (vr == 0) std::memcpy(local(slot), data, nbytes);
  int mask = 1;
  if (vr != 0) {
    while (!(vr & mask)) mask <<= 1;
    wait_ge(flag, gen);
  } else {
    while (mask < n_) mask <<= 1;
  }
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (vr + m < n_) {
      const int child = (vr + m + root0) % n_;
      send_payload(child, slot, local(slot), nbytes, flag, gen);
    }
  }
  if (vr != 0) std::memcpy(data, local(slot), nbytes);
}

void CollectiveEngine::node_fanout(int local_root, void* data,
                                   std::size_t nbytes, std::int64_t gen) {
  const int base = node_of(me()) * node_size_;
  const int nm = node_members(node_of(me()));
  if (nm <= 1) return;
  const std::uint64_t slot = bc_slot(gen);
  const std::uint64_t flag = bc_flag(gen);
  const int lr = local_root - base;
  const int vl = (me() - base - lr + nm) % nm;
  int mask = 1;
  if (vl != 0) {
    while (!(vl & mask)) mask <<= 1;
    wait_ge(flag, gen);
  } else {
    while (mask < nm) mask <<= 1;
  }
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (vl + m < nm) {
      const int child = base + (vl + m + lr) % nm;
      send_payload(child, slot, local(slot), nbytes, flag, gen);
    }
  }
  if (vl != 0) std::memcpy(data, local(slot), nbytes);
}

void CollectiveEngine::bcast_two_level(void* data, std::size_t nbytes,
                                       int root0, std::int64_t gen) {
  const int L = num_nodes_;
  const int root_node = node_of(root0);
  // The rotated leader list: index 0 is the root itself (standing in for
  // its node's leader), other entries are the first rank of each node.
  auto lead_rank = [&](int idx) {
    const int node = (root_node + idx) % L;
    return node == root_node ? root0 : node * node_size_;
  };
  const int my_lidx = (node_of(me()) - root_node + L) % L;
  const int my_lead = lead_rank(my_lidx);
  const std::uint64_t slot = bc_slot(gen);
  const std::uint64_t flag = bc_flag(gen);
  if (me() == root0) std::memcpy(local(slot), data, nbytes);
  if (me() == my_lead) {
    if (my_lidx != 0) wait_ge(flag, gen);
    for (const int c : knomial_children(my_lidx, L)) {
      send_payload(lead_rank(c), slot, local(slot), nbytes, flag, gen);
    }
  }
  node_fanout(my_lead, data, nbytes, gen);
  // node_fanout copies out for everyone below the local root; a leader that
  // is not the global root received into its slot only.
  if (me() == my_lead && me() != root0) {
    std::memcpy(data, local(slot), nbytes);
  }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

void CollectiveEngine::allreduce(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb) {
  if (n_ <= 1 || nelems == 0) return;
  ++state().tele.reductions;
  const std::size_t nbytes = nelems * elem;
  CollAlgo algo =
      opts_.reduce == CollAlgo::kAuto ? pick_reduce(nbytes) : opts_.reduce;
  if (algo == CollAlgo::kPipelined && nbytes > kPipeChunk &&
      elem <= kPipeChunk) {
    pipe_allreduce(data, nelems, elem, comb, next_gen());
    return;
  }
  if (algo == CollAlgo::kPipelined) algo = CollAlgo::kBinomial;
  std::size_t limit = kSlotBytes;
  if (algo == CollAlgo::kTwoLevel || algo == CollAlgo::kRecursiveDoubling) {
    limit = kRdMaxBytes;  // their staging slots cap at kRdMaxBytes
  }
  if (elem > limit) {
    algo = CollAlgo::kBinomial;
    limit = kSlotBytes;
  }
  assert(elem <= kSlotBytes);
  const std::size_t per_chunk = std::max<std::size_t>(1, limit / elem);
  std::vector<int> all;
  if (algo == CollAlgo::kRecursiveDoubling) {
    all.resize(static_cast<std::size_t>(n_));
    for (int r = 0; r < n_; ++r) all[static_cast<std::size_t>(r)] = r;
  }
  auto* bytes = static_cast<std::byte*>(data);
  std::size_t done = 0;
  while (done < nelems) {
    const std::size_t ne = std::min(nelems - done, per_chunk);
    // Recursive doubling never touches the bcast-slot ring; every other
    // arm finishes (or stages) through it and pays the window check.
    const std::int64_t gen = algo == CollAlgo::kRecursiveDoubling
                                 ? next_gen()
                                 : next_bc_gen();
    void* ptr = bytes + done * elem;
    switch (algo) {
      case CollAlgo::kFlat:
        reduce_flat(ptr, ne, elem, comb, gen);
        break;
      case CollAlgo::kTwoLevel:
        reduce_two_level(ptr, ne, elem, comb, gen);
        break;
      case CollAlgo::kRecursiveDoubling:
        rd_allreduce(all, me(), ptr, ne, elem, comb, gen);
        break;
      default:
        reduce_binomial(ptr, ne, elem, comb, gen);
        break;
    }
    done += ne;
  }
}

void CollectiveEngine::reduce_flat(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb, std::int64_t gen) {
  const std::size_t nbytes = nelems * elem;
  const std::uint64_t slot = bc_slot(gen);
  const std::int64_t fc = ++state().flat_calls;
  if (me() != 0) {
    // Stage locally, announce arrival; the result broadcast below doubles
    // as the release (the root only reads slots before it sends).
    std::memcpy(local(slot), data, nbytes);
    count_msg(0, sizeof(std::int64_t));
    (void)conduit_.amo(AmoOp::kFetchAdd, 0, flat_ctr_off_, 1);
  } else {
    wait_ge(flat_ctr_off_, static_cast<std::int64_t>(n_ - 1) * fc);
    std::vector<std::byte> tmp(nbytes);
    for (int r = 1; r < n_; ++r) {
      conduit_.get(tmp.data(), r, slot, nbytes);
      combine_buf(data, tmp.data(), nelems, elem, comb);
    }
  }
  bcast_flat(data, nbytes, 0, gen);
}

void CollectiveEngine::reduce_binomial(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb, std::int64_t gen) {
  const std::size_t nbytes = nelems * elem;
  int level = 0;
  for (int mask = 1; mask < n_; mask <<= 1, ++level) {
    assert(level < levels_);
    const std::uint64_t slot = tree_slot(level);
    const std::uint64_t flag = tree_flag(level);
    if (me() & mask) {
      send_payload(me() - mask, slot, data, nbytes, flag, gen);
      break;
    }
    if (me() + mask < n_) {
      wait_ge(flag, gen);
      // The sender covers the contiguous block [me+mask, me+2*mask), so
      // folding it in from the right keeps the ascending rank order.
      combine_buf(data, local(slot), nelems, elem, comb);
    }
  }
  bcast_binomial(data, nbytes, 0, gen);
}

void CollectiveEngine::rd_allreduce(
    const std::vector<int>& group, int gi, void* data, std::size_t nelems,
    std::size_t elem, const std::function<void(void*, const void*)>& comb,
    std::int64_t gen) {
  const int G = static_cast<int>(group.size());
  if (G <= 1) return;
  const std::size_t nbytes = nelems * elem;
  assert(nbytes <= kRdMaxBytes);
  int g2 = 1;
  while (g2 * 2 <= G) g2 *= 2;
  const int extra = G - g2;
  const int fold_slot = levels_;      // pre-fold contribution in
  const int ret_slot = levels_ + 1;   // folded result back out
  // Non-power-of-two: pair each of the first `extra` ODD group indices with
  // its left neighbour. The absorber then covers the contiguous block
  // {gi, gi+1}, so every survivor owns a contiguous run of group indices —
  // the property the rank-order fold below depends on. (Folding index
  // gi+g2 into gi, the textbook shortcut, covers {gi, gi+g2}: wrong order
  // for non-commutative combiners.)
  if (gi < 2 * extra && (gi & 1) != 0) {
    const int partner = group[static_cast<std::size_t>(gi - 1)];
    send_payload(partner, rd_slot(fold_slot), data, nbytes, rd_flag(fold_slot),
                 gen);
    wait_ge(rd_flag(ret_slot), gen);
    std::memcpy(data, local(rd_slot(ret_slot)), nbytes);
    return;
  }
  const bool absorbed = gi < 2 * extra;
  if (absorbed) {
    wait_ge(rd_flag(fold_slot), gen);
    // The absorbed neighbour is gi+1: fold from the right.
    combine_buf(data, local(rd_slot(fold_slot)), nelems, elem, comb);
  }
  // Survivor index: pairs occupy group positions [0, 2*extra), singletons
  // follow. The map is monotone, so ascending survivor index == ascending
  // group blocks and the usual recursive-doubling merge rule applies.
  const int j = absorbed ? gi / 2 : gi - extra;
  auto survivor = [&](int sj) {
    const int pos = sj < extra ? 2 * sj : sj + extra;
    return group[static_cast<std::size_t>(pos)];
  };
  std::vector<std::byte> tmp(nbytes);
  for (int r = 0; (1 << r) < g2; ++r) {
    const int pj = j ^ (1 << r);
    send_payload(survivor(pj), rd_slot(r), data, nbytes, rd_flag(r), gen);
    wait_ge(rd_flag(r), gen);
    if (pj < j) {
      // Partner covers the lower indices: result = theirs ∘ mine.
      std::memcpy(tmp.data(), local(rd_slot(r)), nbytes);
      combine_buf(tmp.data(), data, nelems, elem, comb);
      std::memcpy(data, tmp.data(), nbytes);
    } else {
      combine_buf(data, local(rd_slot(r)), nelems, elem, comb);
    }
  }
  if (absorbed) {
    const int partner = group[static_cast<std::size_t>(gi + 1)];
    send_payload(partner, rd_slot(ret_slot), data, nbytes, rd_flag(ret_slot),
                 gen);
  }
}

void CollectiveEngine::reduce_two_level(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb, std::int64_t gen) {
  const std::size_t nbytes = nelems * elem;
  assert(nbytes <= kRdMaxBytes);
  const int my_node = node_of(me());
  const int base = my_node * node_size_;
  const int nm = node_members(my_node);
  const int lead = base;
  if (me() != lead) {
    const int idx = me() - base;
    send_payload(lead, gather_slot(idx), data, nbytes, gather_flag(idx), gen);
  } else {
    for (int i = 1; i < nm; ++i) {
      wait_ge(gather_flag(i), gen);
      combine_buf(data, local(gather_slot(i)), nelems, elem, comb);
    }
    if (num_nodes_ > 1) {
      std::vector<int> leaders(static_cast<std::size_t>(num_nodes_));
      for (int i = 0; i < num_nodes_; ++i) {
        leaders[static_cast<std::size_t>(i)] = i * node_size_;
      }
      rd_allreduce(leaders, my_node, data, nelems, elem, comb, gen);
    }
    std::memcpy(local(bc_slot(gen)), data, nbytes);
  }
  node_fanout(lead, data, nbytes, gen);
}

// ---------------------------------------------------------------------------
// Pipelined arms (contiguous binary tree, ack-window flow control)
// ---------------------------------------------------------------------------

CollectiveEngine::BinTree CollectiveEngine::bin_tree(int vrank, int n) {
  BinTree t;
  int lo = 0;
  int hi = n - 1;
  while (vrank != lo) {
    const int mid = (lo + 1 + hi) / 2;
    t.parent = lo;
    if (vrank <= mid) {
      t.my_slot = 0;
      lo = lo + 1;
      hi = mid;
    } else {
      t.my_slot = 1;
      lo = mid + 1;
    }
  }
  if (lo + 1 <= hi) {
    const int mid = (lo + 1 + hi) / 2;
    t.child[t.nchild++] = lo + 1;
    if (mid + 1 <= hi) t.child[t.nchild++] = mid + 1;
  }
  return t;
}

namespace {
// Chunk marks encode (generation, chunk index) so flag and ack cells stay
// monotone across back-to-back collectives.
std::int64_t chunk_mark(std::int64_t gen, std::size_t c) {
  return (gen << 20) | static_cast<std::int64_t>(c + 1);
}
}  // namespace

void CollectiveEngine::pipe_bcast(void* data, std::size_t nbytes, int root0,
                                  std::int64_t gen) {
  const std::size_t cb = kPipeChunk;
  const std::size_t C = (nbytes + cb - 1) / cb;
  assert(C < (std::size_t{1} << 20));
  const int D = kPipeDepth;
  const int vrank = (me() - root0 + n_) % n_;
  const BinTree t = bin_tree(vrank, n_);
  auto phys = [&](int v) { return (v + root0) % n_; };
  auto* bytes = static_cast<std::byte*>(data);
  for (std::size_t c = 0; c < C; ++c) {
    const std::size_t off = c * cb;
    const std::size_t len = std::min(cb, nbytes - off);
    const std::byte* src;
    if (t.parent >= 0) {
      wait_ge(pd_flag_off_, chunk_mark(gen, c));
      src = local(pd_bank(static_cast<int>(c) % D));
    } else {
      src = bytes + off;
    }
    for (int k = 0; k < t.nchild; ++k) {
      if (c >= static_cast<std::size_t>(D)) {
        // Bank slot c%D at the child still holds chunk c-D until acked.
        wait_ge(pd_ack_off_ + static_cast<std::uint64_t>(k) * 8,
                chunk_mark(gen, c - static_cast<std::size_t>(D)));
      }
      const int child = phys(t.child[k]);
      count_msg(child, len);
      conduit_.put(child, pd_bank(static_cast<int>(c) % D), src, len,
                   /*nbi=*/true);
      if (!opts_.per_target_completion) conduit_.quiet();
      const std::int64_t m = chunk_mark(gen, c);
      count_msg(child, sizeof m);
      conduit_.put(child, pd_flag_off_, &m, sizeof m, /*nbi=*/true);
      ++state().tele.chunks_pipelined;
    }
    if (t.parent >= 0) {
      std::memcpy(bytes + off, src, len);
      put_i64(phys(t.parent),
              pd_ack_off_ + static_cast<std::uint64_t>(t.my_slot) * 8,
              chunk_mark(gen, c));
    }
  }
  // Drain: the next collective may reuse the children's banks immediately,
  // so hold until they acked the tail chunks.
  for (int k = 0; k < t.nchild; ++k) {
    wait_ge(pd_ack_off_ + static_cast<std::uint64_t>(k) * 8,
            chunk_mark(gen, C - 1));
  }
}

void CollectiveEngine::pipe_allreduce(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb, std::int64_t gen) {
  const std::size_t nbytes = nelems * elem;
  const std::size_t chunk_elems =
      std::max<std::size_t>(1, kPipeChunk / elem);
  const std::size_t cb = chunk_elems * elem;
  const std::size_t C = (nbytes + cb - 1) / cb;
  assert(C < (std::size_t{1} << 20));
  const int D = kPipeDepth;
  const BinTree t = bin_tree(me(), n_);
  auto* bytes = static_cast<std::byte*>(data);
  // Up phase: children stream subtree-combined chunks into per-child banks;
  // the parent folds them in ascending-child order (contiguous ranges keep
  // the rank-order fold) and streams its own combined chunk upward.
  for (std::size_t c = 0; c < C; ++c) {
    const std::size_t off = c * cb;
    const std::size_t len = std::min(cb, nbytes - off);
    std::byte* ptr = bytes + off;
    for (int k = 0; k < t.nchild; ++k) {
      wait_ge(pu_flag_off_ + static_cast<std::uint64_t>(k) * 8,
              chunk_mark(gen, c));
      combine_buf(ptr, local(pu_bank(k, static_cast<int>(c) % D)), len / elem,
                  elem, comb);
      put_i64(t.child[k], pu_ack_off_, chunk_mark(gen, c));
    }
    if (t.parent >= 0) {
      if (c >= static_cast<std::size_t>(D)) {
        wait_ge(pu_ack_off_, chunk_mark(gen, c - static_cast<std::size_t>(D)));
      }
      count_msg(t.parent, len);
      conduit_.put(t.parent, pu_bank(t.my_slot, static_cast<int>(c) % D), ptr,
                   len, /*nbi=*/true);
      if (!opts_.per_target_completion) conduit_.quiet();
      const std::int64_t m = chunk_mark(gen, c);
      count_msg(t.parent, sizeof m);
      conduit_.put(t.parent,
                   pu_flag_off_ + static_cast<std::uint64_t>(t.my_slot) * 8,
                   &m, sizeof m, /*nbi=*/true);
      ++state().tele.chunks_pipelined;
    }
  }
  if (t.parent >= 0 && C > 0) {
    wait_ge(pu_ack_off_, chunk_mark(gen, C - 1));
  }
  // Down phase: stream the reduced payload back through the same tree.
  pipe_bcast(data, nbytes, /*root0=*/0, gen);
}

// ---------------------------------------------------------------------------
// Hierarchical dissemination barrier
// ---------------------------------------------------------------------------

void CollectiveEngine::barrier() {
  if (n_ <= 1) return;
  obs::Span sp(obs::Cat::kBarrier);
  PerRank& st = state();
  ++st.tele.barriers;
  const std::int64_t bg = ++st.bar_gen;
  const int my_node = node_of(me());
  const int base = my_node * node_size_;
  const int nm = node_members(my_node);
  const int lead = base;
  if (me() != lead) {
    count_msg(lead, sizeof(std::int64_t));
    (void)conduit_.amo(AmoOp::kFetchAdd, lead, bar_gather_off_, 1);
    wait_ge(bar_release_off_, bg);
    return;
  }
  if (nm > 1) {
    wait_ge(bar_gather_off_, static_cast<std::int64_t>(nm - 1) * bg);
  }
  // Dissemination rounds across node leaders only: ceil(log2 nodes) wire
  // messages per leader instead of ceil(log2 images) per image.
  const int L = num_nodes_;
  for (int r = 0; (1 << r) < L; ++r) {
    const int peer = ((my_node + (1 << r)) % L) * node_size_;
    put_i64(peer, bar_cells_off_ + static_cast<std::uint64_t>(r) * 8, bg);
    wait_ge(bar_cells_off_ + static_cast<std::uint64_t>(r) * 8, bg);
  }
  for (int i = 1; i < nm; ++i) {
    put_i64(base + i, bar_release_off_, bg);
  }
}

}  // namespace caf
