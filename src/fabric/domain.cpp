#include "fabric/domain.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cassert>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "net/fault.hpp"
#include "obs/obs.hpp"

namespace fabric {

namespace {
std::string peer_failed_msg(const char* op, int src_pe, int dst_pe,
                            int attempts, sim::Time t) {
  std::ostringstream os;
  os << op << " from pe " << src_pe << " to pe " << dst_pe << " failed after "
     << attempts << " attempt(s) at t=" << sim::format_time(t)
     << " (retransmit budget exhausted; peer dead or sustained loss)";
  return os.str();
}
}  // namespace

PeerFailedError::PeerFailedError(const char* op, int src_pe, int dst_pe,
                                 int attempts, sim::Time t)
    : std::runtime_error(peer_failed_msg(op, src_pe, dst_pe, attempts, t)),
      op_(op),
      src_pe_(src_pe),
      dst_pe_(dst_pe),
      attempts_(attempts),
      time_(t) {}

Domain::ZeroedBuffer::ZeroedBuffer(std::size_t n)
    : p_(static_cast<std::byte*>(std::calloc(n ? n : 1, 1))) {
  if (p_ == nullptr) throw std::bad_alloc();
}

Domain::ZeroedBuffer::~ZeroedBuffer() { std::free(p_); }

Domain::Domain(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
               std::size_t segment_bytes)
    : engine_(engine),
      fabric_(fabric),
      sw_(std::move(sw)),
      segment_bytes_(segment_bytes) {
  // Round r of a barrier over n PEs exists for 2^r < n, and its flag is the
  // int64 8r bytes into the segment: a larger world, or a segment no larger
  // than the flags, would put a round's flag on the libraries' own state.
  if (fabric_.npes() > (1 << kMaxRounds)) {
    throw std::invalid_argument(
        "fabric::Domain: " + std::to_string(fabric_.npes()) +
        " PEs exceed the barrier's maximum of " +
        std::to_string(1 << kMaxRounds));
  }
  if (segment_bytes_ <= kBarrierBytes) {
    throw std::invalid_argument(
        "fabric::Domain: a segment must exceed the " +
        std::to_string(kBarrierBytes) + " bytes of barrier flags");
  }
  segments_.reserve(fabric_.npes());
  for (int i = 0; i < fabric_.npes(); ++i) {
    segments_.emplace_back(segment_bytes_);
  }
  outstanding_.assign(fabric_.npes(), 0);
  watchers_.resize(fabric_.npes());
  barrier_.resize(fabric_.npes());
}

std::byte* Domain::segment(int pe) {
  assert(pe >= 0 && pe < npes());
  return segments_[pe].data();
}

const std::byte* Domain::segment(int pe) const {
  assert(pe >= 0 && pe < npes());
  return segments_[pe].data();
}

void Domain::note_outstanding(int src_pe, sim::Time t) {
  outstanding_[src_pe] = std::max(outstanding_[src_pe], t);
}

void Domain::enable_node_transport(const net::NodeTransportOptions& opts) {
  if (!opts.enabled || node_ != nullptr) return;
  node_ = std::make_unique<net::NodeChannel>(fabric_.profile(), fabric_.npes(),
                                             opts);
}

Domain::NodeTele& Domain::node_tele(int pe) {
  if (node_tele_.empty()) node_tele_.resize(static_cast<std::size_t>(npes()));
  NodeTele& t = node_tele_[static_cast<std::size_t>(pe)];
  if (t.puts == nullptr) {
    auto& reg = obs::registry();
    t.puts = &reg.counter(pe, "node.puts");
    t.gets = &reg.counter(pe, "node.gets");
    t.amos = &reg.counter(pe, "node.amos");
    t.scatters = &reg.counter(pe, "node.scatters");
    t.strided = &reg.counter(pe, "node.strided");
    t.ring_msgs = &reg.counter(pe, "node.ring_msgs");
    t.ring_stalls = &reg.counter(pe, "node.ring_stalls");
    t.bulk_msgs = &reg.counter(pe, "node.bulk_msgs");
    t.numa_remote = &reg.counter(pe, "node.numa_remote");
    t.elided_msgs = &reg.counter(pe, "node.elided_msgs");
    t.elided_bytes = &reg.counter(pe, "node.elided_bytes");
  }
  return t;
}

sim::Time Domain::slowed(int pe, sim::Time cost) const {
  const net::FaultInjector* fi = fabric_.fault_injector();
  return fi != nullptr ? fi->dilate(pe, cost) : cost;
}

net::PutCompletion Domain::node_oneway(int me, int dst_pe,
                                       std::size_t wire_bytes,
                                       sim::Time extra_copy, Counter count) {
  NodeTele& t = node_tele(me);
  net::NodeChannel& ch = *node_;
  net::FaultInjector* fi = fabric_.fault_injector();
  const sim::Time now = engine_.now();
  sim::Time local_complete;
  sim::Time delivered;
  if (extra_copy == 0 && ch.ring_eligible(wire_bytes)) {
    // The producer stores the slots; the consumer pops them.
    const net::RingPush p =
        ch.push(me, dst_pe, wire_bytes, now,
                slowed(me, ch.ring_write_cost(wire_bytes)),
                slowed(dst_pe, net::NodeChannel::kRingPop));
    local_complete = p.producer_done;
    delivered = p.delivered;
    ++*t.ring_msgs;
    if (p.stalled) ++*t.ring_stalls;
  } else {
    local_complete =
        now + slowed(me, ch.copy_cost(me, dst_pe, wire_bytes) + extra_copy);
    delivered = local_complete + ch.visibility(me, dst_pe);
    ++*t.bulk_msgs;
  }
  if (!ch.numa_local(me, dst_pe)) ++*t.numa_remote;
  if (fi != nullptr) {
    if (fi->pe_dead(dst_pe, delivered)) {
      // The peer's shared segment is detached before the bytes land; a
      // shared-memory store cannot be retransmitted.
      fi->note_exhaustion(me, dst_pe, delivered);
      return {local_complete, delivered, false, 1};
    }
    fi->note_delivery(me, dst_pe, delivered);
  }
  ++*(t.*count);
  ++*t.elided_msgs;
  *t.elided_bytes += wire_bytes;
  return {local_complete, delivered, true, 1};
}

net::RoundTrip Domain::node_roundtrip(int me, int peer,
                                      const net::NodeRoundTrip& rt,
                                      std::size_t bytes, Counter count) {
  NodeTele& t = node_tele(me);
  net::FaultInjector* fi = fabric_.fault_injector();
  if (fi != nullptr && fi->pe_dead(peer, rt.exec)) {
    // Loading from a detached segment faults; no retry can help.
    fi->note_exhaustion(me, peer, rt.exec);
    return {rt.exec, rt.exec, false, 1};
  }
  ++*(t.*count);
  ++*t.elided_msgs;
  *t.elided_bytes += bytes;
  if (!node_->numa_local(me, peer)) ++*t.numa_remote;
  return {rt.exec, rt.complete, true, 1};
}

Domain::PendingMsg* Domain::MsgPool::acquire() {
  if (free_ != nullptr) {
    PendingMsg* m = free_;
    free_ = m->next;
    return m;
  }
  if (bump_left_ == 0) {
    // for_overwrite: every field is written by the issue site.
    slabs_.push_back(std::make_unique_for_overwrite<Slab>());
    bump_ = slabs_.back()->msgs;
    bump_left_ = kSlabMsgs;
  }
  --bump_left_;
  return bump_++;
}

std::byte* Domain::BufPool::acquire(std::size_t n, std::uint8_t* cls_out) {
  // Pow2 size classes, 16-byte minimum (the free-list link lives in the
  // buffer's first bytes, and scatter records need 8-byte alignment, which
  // malloc already guarantees per class).
  const auto cls = static_cast<std::uint8_t>(
      std::bit_width(std::max<std::size_t>(n, 16) - 1));
  assert(cls < sizeof(free_) / sizeof(free_[0]));
  *cls_out = cls;
  std::byte*& fl = free_[cls];
  if (fl != nullptr) {
    std::byte* p = fl;
    std::memcpy(&fl, p, sizeof fl);
    return p;
  }
  auto* p = static_cast<std::byte*>(std::malloc(std::size_t{1} << cls));
  if (p == nullptr) throw std::bad_alloc();
  all_.push_back(p);
  return p;
}

void Domain::BufPool::release(std::byte* p, std::uint8_t cls) {
  std::memcpy(p, &free_[cls], sizeof(std::byte*));
  free_[cls] = p;
}

Domain::BufPool::~BufPool() {
  for (std::byte* p : all_) std::free(p);
}

namespace {
std::size_t hash_dst(int dst) {
  return static_cast<std::size_t>(
      static_cast<std::uint64_t>(dst) * 0x9E3779B97F4A7C15ull >> 32);
}
}  // namespace

std::uint32_t Domain::pair_id(int src_pe, int dst_pe) {
  if (pair_map_.empty()) pair_map_.resize(static_cast<std::size_t>(npes()));
  PairTable& tbl = pair_map_[static_cast<std::size_t>(src_pe)];
  if (tbl.slots.empty()) tbl.slots.assign(8, PairSlot{-1, 0});
  std::size_t mask = tbl.slots.size() - 1;
  std::size_t i = hash_dst(dst_pe) & mask;
  while (tbl.slots[i].dst >= 0) {
    if (tbl.slots[i].dst == dst_pe) return tbl.slots[i].id;
    i = (i + 1) & mask;
  }
  // First put on this pair: mint a dense id (first-touch order, which is
  // deterministic) and grow its SoA stream state.
  const auto id = static_cast<std::uint32_t>(fifo_last_.size());
  fifo_last_.push_back(0);
  head_.push_back(nullptr);
  tail_.push_back(nullptr);
  if ((tbl.count + 1) * 2 > tbl.slots.size()) {
    std::vector<PairSlot> old = std::move(tbl.slots);
    tbl.slots.assign(old.size() * 2, PairSlot{-1, 0});
    mask = tbl.slots.size() - 1;
    for (const PairSlot& s : old) {
      if (s.dst < 0) continue;
      std::size_t j = hash_dst(s.dst) & mask;
      while (tbl.slots[j].dst >= 0) j = (j + 1) & mask;
      tbl.slots[j] = s;
    }
    i = hash_dst(dst_pe) & mask;
    while (tbl.slots[i].dst >= 0) i = (i + 1) & mask;
  }
  tbl.slots[i] = PairSlot{dst_pe, id};
  ++tbl.count;
  return id;
}

void Domain::stream_fire_tramp(void* ctx, std::uint64_t pair, std::uint64_t) {
  static_cast<Domain*>(ctx)->stream_fire(static_cast<std::uint32_t>(pair));
}

void Domain::stream_append(std::uint32_t pair, PendingMsg* m) {
  m->next = nullptr;
  if (tail_[pair] != nullptr) {
    // Stream busy: the armed event for the current head will re-arm for us.
    tail_[pair]->next = m;
    tail_[pair] = m;
    return;
  }
  head_[pair] = tail_[pair] = m;
  engine_.schedule_raw_reserved(m->t, m->seq, &stream_fire_tramp, this, pair);
}

void Domain::stream_fire(std::uint32_t pair) {
  PendingMsg* m = head_[pair];
  head_[pair] = m->next;
  if (head_[pair] == nullptr) {
    tail_[pair] = nullptr;
  } else {
    // Successors have strictly later clamped times and their own reserved
    // seqs, so re-arming now reproduces the exact (t, seq) pop position a
    // dedicated event would have had.
    engine_.schedule_raw_reserved(head_[pair]->t, head_[pair]->seq,
                                  &stream_fire_tramp, this, pair);
  }
  apply(*m);
  buf_pool_.release(m->buf, m->buf_cls);
  msg_pool_.release(m);
}

void Domain::apply(const PendingMsg& m) {
  std::byte* seg = segments_[m.dst_pe].data();
  switch (m.op) {
    case PendingMsg::Op::kContig:
      assert(m.dst_off + m.payload_bytes <= segment_bytes_);
      std::memcpy(seg + m.dst_off, m.buf, m.payload_bytes);
      wake(m.dst_pe, m.dst_off, m.payload_bytes, m.t);
      break;
    case PendingMsg::Op::kScatter: {
      const auto* recs = reinterpret_cast<const ScatterRec*>(m.buf);
      const std::byte* payload = m.buf + m.payload_off;
      for (std::uint32_t i = 0; i < m.nelems; ++i) {
        const ScatterRec& r = recs[i];
        std::memcpy(seg + r.dst_off, payload + r.payload_off, r.len);
        wake(m.dst_pe, r.dst_off, r.len, m.t);
      }
      break;
    }
    case PendingMsg::Op::kStrided:
      for (std::uint32_t i = 0; i < m.nelems; ++i) {
        const std::uint64_t off =
            m.dst_off +
            i * static_cast<std::uint64_t>(m.dst_stride) * m.elem_bytes;
        std::memcpy(seg + off, m.buf + std::size_t{i} * m.elem_bytes,
                    m.elem_bytes);
        wake(m.dst_pe, off, m.elem_bytes, m.t);
      }
      break;
  }
}

void Domain::poke(int dst_pe, std::uint64_t dst_off, const void* src,
                  std::size_t n, sim::Time t) {
  assert(dst_off + n <= segment_bytes_);
  std::memcpy(segments_[dst_pe].data() + dst_off, src, n);
  wake(dst_pe, dst_off, n, t);
}

bool Domain::poll_or_watch(std::uint64_t off, Cmp cmp, std::int64_t value,
                           const char* block_op) {
  if (off + sizeof(std::int64_t) > segment_bytes_) {
    throw std::out_of_range("fabric::Domain::wait_until beyond segment");
  }
  sim::Fiber* f = engine_.current_fiber();
  assert(f != nullptr && "fabric operations require a PE fiber context");
  std::int64_t v = 0;
  std::memcpy(&v, segments_[f->pe()].data() + off, sizeof v);
  if (compare(v, cmp, value)) return true;
  watchers_[f->pe()].push_back({off, f});
  f->set_block_op(block_op);
  engine_.park_blocked();
  return false;
}

void Domain::wait_until(std::uint64_t off, Cmp cmp, std::int64_t value,
                        const char* block_op) {
  struct Wait {
    Domain* d;
    std::uint64_t off;
    Cmp cmp;
    std::int64_t value;
    const char* block_op;
  } w{this, off, cmp, value, block_op};
  // Each wake-up re-polls host-side; the fiber is switched in only once
  // the word satisfies the comparison.
  engine_.run_parked(
      [](void* p) {
        auto& w = *static_cast<Wait*>(p);
        return w.d->poll_or_watch(w.off, w.cmp, w.value, w.block_op);
      },
      &w);
}

void Domain::barrier(const ActiveSet& peers, std::uint64_t flag_off,
                     std::int64_t gen, bool pipelined, const char* block_op) {
  const int me = current_pe();
  BarrierStep& b = barrier_[me];
  b.domain = this;
  b.peers = peers;
  b.rank = peers.rel_of(me);
  assert(b.rank >= 0 && "barrier: calling PE is not in the set");
  b.dist = 1;
  b.flag = flag_off;
  b.gen = gen;
  b.block_op = block_op;
  b.pipelined = pipelined;
  b.phase = BarrierStep::Phase::kIssue;
  engine_.run_parked(&BarrierStep::step, &b);
}

// A round is the put, local-completion wait and flag wait that put() and
// wait_until() make, in the same order, so every event keeps its
// (time, seq).
bool Domain::BarrierStep::run() {
  for (;;) {
    switch (phase) {
      case Phase::kIssue:
        if (dist >= peers.pe_size) return true;
        put = domain->put_issue(peer(), flag, &gen, sizeof gen, pipelined);
        phase = Phase::kLocalComplete;
        if (domain->engine_.park_until(put.local_complete)) return false;
        [[fallthrough]];
      case Phase::kLocalComplete:
        if (!put.ok) {
          throw PeerFailedError("put", peers.world_pe(rank), peer(),
                                put.attempts, put.delivered);
        }
        phase = Phase::kWait;
        [[fallthrough]];
      case Phase::kWait:
        if (!domain->poll_or_watch(flag, Cmp::kGe, gen, block_op)) {
          return false;
        }
        dist <<= 1;
        flag += sizeof(std::int64_t);
        phase = Phase::kIssue;
    }
  }
}

void Domain::wake(int pe, std::uint64_t off, std::size_t len, sim::Time t) {
  auto& list = watchers_[pe];
  std::size_t kept = 0;
  for (const Watcher& w : list) {
    if (w.off < off + len && off < w.off + sizeof(std::int64_t)) {
      engine_.resume(*w.fiber, t);  // schedules; never runs the fiber here
    } else {
      list[kept++] = w;
    }
  }
  list.resize(kept);
}

namespace {
// Copies `nelems` elements of `elem_bytes`, `src_stride` elements apart in
// `src`, to `dst_stride` elements apart in `dst` (stride 1 packs).
void copy_elems(std::byte* dst, std::ptrdiff_t dst_stride, const std::byte* src,
                std::ptrdiff_t src_stride, std::size_t elem_bytes,
                std::size_t nelems) {
  const auto e = static_cast<std::ptrdiff_t>(elem_bytes);
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(nelems); ++i) {
    std::memcpy(dst + i * dst_stride * e, src + i * src_stride * e,
                elem_bytes);
  }
}
}  // namespace

void Domain::check_span(const char* op, std::uint64_t off,
                        std::ptrdiff_t stride, std::size_t elem_bytes,
                        std::size_t nelems) const {
  const std::uint64_t end =
      off + (nelems - 1) * static_cast<std::uint64_t>(stride) * elem_bytes +
      elem_bytes;
  if (end > segment_bytes_) {
    throw std::out_of_range(std::string("fabric::Domain::") + op +
                            " beyond segment");
  }
}

template <class Pack>
void Domain::enqueue(int me, int dst_pe, net::PutCompletion& c,
                     std::size_t buf_bytes, Pack&& pack) {
  // A give-up is not recorded as outstanding: the bytes never land, and
  // quiet() must not stall on them.
  if (!c.ok) return;
  const std::uint32_t pair = pair_id(me, dst_pe);
  c.delivered = clamp_in_order(pair, c.delivered);
  note_outstanding(me, c.delivered);
  // Capture the payload now: OpenSHMEM putmem guarantees the source buffer
  // is reusable on return.
  PendingMsg* m = msg_pool_.acquire();
  m->t = c.delivered;
  m->dst_pe = dst_pe;
  m->buf = buf_pool_.acquire(buf_bytes, &m->buf_cls);
  pack(*m);
  m->seq = engine_.reserve_seq();
  stream_append(pair, m);
}

void Domain::complete_local(const char* op, int me, int dst_pe,
                            const net::PutCompletion& c) {
  engine_.advance_to(c.local_complete);
  if (!c.ok) throw PeerFailedError(op, me, dst_pe, c.attempts, c.delivered);
}

void Domain::check_reply(const char* op, int me, int peer,
                         const net::RoundTrip& rt) {
  if (rt.ok) return;
  engine_.advance_to(rt.complete);
  throw PeerFailedError(op, me, peer, rt.attempts, rt.complete);
}

net::PutCompletion Domain::put(int dst_pe, std::uint64_t dst_off,
                               const void* src, std::size_t n,
                               bool pipelined) {
  const net::PutCompletion c = put_issue(dst_pe, dst_off, src, n, pipelined);
  complete_local("put", current_pe(), dst_pe, c);
  return c;
}

net::PutCompletion Domain::put_issue(int dst_pe, std::uint64_t dst_off,
                                     const void* src, std::size_t n,
                                     bool pipelined) {
  const int me = current_pe();
  check_span("put", dst_off, 1, n, 1);
  // The node route is a ring push or a NUMA memcpy, with no fabric message.
  // The producer pays the copy either way, so nbi and blocking puts price
  // identically there.
  net::PutCompletion c =
      node_routed(me, dst_pe)
          ? node_oneway(me, dst_pe, n, 0, &NodeTele::puts)
          : fabric_.submit_put(me, dst_pe, n, sw_, engine_.now(), pipelined);
  enqueue(me, dst_pe, c, n, [&](PendingMsg& m) {
    m.op = PendingMsg::Op::kContig;
    m.dst_off = dst_off;
    m.payload_bytes = static_cast<std::uint32_t>(n);
    std::memcpy(m.buf, src, n);
  });
  return c;
}

net::PutCompletion Domain::put_scatter(int dst_pe, const ScatterRec* recs,
                                       std::size_t nrecs, const void* payload,
                                       std::size_t payload_bytes,
                                       bool pipelined) {
  const int me = current_pe();
  for (std::size_t i = 0; i < nrecs; ++i) {
    if (recs[i].dst_off + recs[i].len > segment_bytes_ ||
        static_cast<std::size_t>(recs[i].payload_off) + recs[i].len >
            payload_bytes) {
      throw std::out_of_range("fabric::Domain::put_scatter beyond segment");
    }
  }
  // Over the fabric: one wire message, the packed payload plus an (offset,
  // length) header per record, sharing a single injection cost; that is
  // the entire point of write combining. On the node route the headers
  // never exist, and each record costs pointer math on top of one copy.
  net::PutCompletion c =
      node_routed(me, dst_pe)
          ? node_oneway(me, dst_pe, payload_bytes,
                        static_cast<sim::Time>(nrecs) *
                            net::NodeChannel::kElemGap,
                        &NodeTele::scatters)
          : fabric_.submit_put(me, dst_pe,
                               payload_bytes + nrecs * kScatterRecWire, sw_,
                               engine_.now(), pipelined);
  // Pack records then payload into one pooled buffer.
  const std::size_t hdr = nrecs * sizeof(ScatterRec);
  enqueue(me, dst_pe, c, hdr + payload_bytes, [&](PendingMsg& m) {
    m.op = PendingMsg::Op::kScatter;
    m.nelems = static_cast<std::uint32_t>(nrecs);
    m.payload_bytes = static_cast<std::uint32_t>(payload_bytes);
    m.payload_off = static_cast<std::uint32_t>(hdr);
    std::memcpy(m.buf, recs, hdr);
    std::memcpy(m.buf + hdr, payload, payload_bytes);
  });
  complete_local("put_scatter", me, dst_pe, c);
  return c;
}

void Domain::iput_hw(int dst_pe, std::uint64_t dst_off,
                     std::ptrdiff_t dst_stride, const void* src,
                     std::ptrdiff_t src_stride, std::size_t elem_bytes,
                     std::size_t nelems, bool pipelined) {
  assert(sw_.hw_strided && "iput_hw requires a hardware-strided profile");
  const int me = current_pe();
  if (nelems == 0) return;
  check_span("iput", dst_off, dst_stride, elem_bytes, nelems);
  // On the node route the producer core walks both strides itself; the
  // NIC's scatter engine is not involved.
  net::PutCompletion c =
      node_routed(me, dst_pe)
          ? node_oneway(me, dst_pe, elem_bytes * nelems,
                        static_cast<sim::Time>(nelems) *
                            net::NodeChannel::kElemGap,
                        &NodeTele::strided)
          : fabric_.submit_strided_put(me, dst_pe, elem_bytes, nelems, sw_,
                                       engine_.now(), pipelined);
  // Gather the source elements at issue time; scatter happens at delivery.
  enqueue(me, dst_pe, c, elem_bytes * nelems, [&](PendingMsg& m) {
    m.op = PendingMsg::Op::kStrided;
    m.dst_off = dst_off;
    m.dst_stride = dst_stride;
    m.elem_bytes = static_cast<std::uint32_t>(elem_bytes);
    m.nelems = static_cast<std::uint32_t>(nelems);
    m.payload_bytes = static_cast<std::uint32_t>(elem_bytes * nelems);
    copy_elems(m.buf, 1, static_cast<const std::byte*>(src), src_stride,
               elem_bytes, nelems);
  });
  complete_local("iput", me, dst_pe, c);
}

void Domain::get(void* dst, int src_pe, std::uint64_t src_off, std::size_t n) {
  read(dst, 1, src_pe, src_off, 1, n, 1, /*strided=*/false);
}

void Domain::iget_hw(void* dst, std::ptrdiff_t dst_stride, int src_pe,
                     std::uint64_t src_off, std::ptrdiff_t src_stride,
                     std::size_t elem_bytes, std::size_t nelems) {
  assert(sw_.hw_strided && "iget_hw requires a hardware-strided profile");
  if (nelems == 0) return;
  read(dst, dst_stride, src_pe, src_off, src_stride, elem_bytes, nelems,
       /*strided=*/true);
}

void Domain::read(void* dst, std::ptrdiff_t dst_stride, int src_pe,
                  std::uint64_t src_off, std::ptrdiff_t src_stride,
                  std::size_t elem_bytes, std::size_t nelems, bool strided) {
  const char* op = strided ? "iget" : "get";
  const int me = current_pe();
  check_span(op, src_off, src_stride, elem_bytes, nelems);
  const std::size_t bytes = elem_bytes * nelems;
  net::RoundTrip rt;
  if (node_routed(me, src_pe)) {
    // The reader's own core streams the bytes out of the peer's shared
    // segment, with per-element pointer math when strided: no request
    // message, no NIC.
    const sim::Time gaps =
        strided ? static_cast<sim::Time>(nelems) * net::NodeChannel::kElemGap
                : 0;
    rt = node_roundtrip(me, src_pe,
                        node_->get(me, src_pe, bytes, engine_.now(),
                                   slowed(me, net::NodeChannel::kBulkIssue),
                                   slowed(me, gaps)),
                        bytes, &NodeTele::gets);
    if (strided && rt.ok) ++*node_tele(me).strided;
  } else {
    rt = strided ? fabric_.submit_strided_get(me, src_pe, elem_bytes, nelems,
                                              sw_, engine_.now())
                 : fabric_.submit_get(me, src_pe, bytes, sw_, engine_.now());
  }
  check_reply(op, me, src_pe, rt);
  sim::Fiber* f = engine_.current_fiber();
  f->set_block_op(op, src_pe);
  // Snapshot target memory when the read is serviced, then hand the bytes
  // to the blocked reader at reply time, unless a kill has unwound it (its
  // buffer may have gone with its stack).
  engine_.schedule(rt.target_read, [=, this] {
    std::uint8_t cls = 0;
    std::byte* snap = buf_pool_.acquire(bytes, &cls);
    copy_elems(snap, 1, segments_[src_pe].data() + src_off, src_stride,
               elem_bytes, nelems);
    engine_.schedule(rt.complete, [=, this] {
      if (f->state() != sim::Fiber::State::kFinished) {
        copy_elems(static_cast<std::byte*>(dst), dst_stride, snap, 1,
                   elem_bytes, nelems);
      }
      buf_pool_.release(snap, cls);
      engine_.resume(*f, rt.complete);
    });
  });
  engine_.block();
}

std::uint64_t Domain::amo(AmoOp op, int dst_pe, std::uint64_t dst_off,
                          std::uint64_t operand, std::uint64_t cond) {
  const int me = current_pe();
  check_span("amo", dst_off, 1, sizeof(std::uint64_t), 1);
  net::RoundTrip rt;
  if (node_routed(me, dst_pe)) {
    // Node-local atomic: a CPU lock-prefixed RMW on the owner's cache line,
    // serialized per target PE inside the channel. The NIC atomic unit (or
    // AM handler) is never involved.
    rt = node_roundtrip(me, dst_pe,
                        node_->amo(me, dst_pe, engine_.now(),
                                   slowed(me, net::NodeChannel::kAmoIssue),
                                   slowed(me, net::NodeChannel::kAmoRmw)),
                        sizeof(std::uint64_t), &NodeTele::amos);
    // The RMW is liveness evidence for the issuer, as a delivered fabric
    // message is (a node-local get is not counted as such).
    net::FaultInjector* fi = fabric_.fault_injector();
    if (fi != nullptr && rt.ok) fi->note_delivery(me, dst_pe, rt.target_read);
  } else {
    rt = fabric_.submit_amo(me, dst_pe, sw_, engine_.now());
  }
  check_reply("amo", me, dst_pe, rt);
  note_outstanding(me, rt.target_read);
  sim::Fiber* f = engine_.current_fiber();
  f->set_block_op("amo", dst_pe);
  // Sized on the first AMO: a run without atomics keeps no slots.
  if (amo_.empty()) amo_.resize(static_cast<std::size_t>(npes()));
  amo_[me] = AmoSlot{op, dst_pe, dst_off, operand, cond, 0, f};
  // The read-modify-write runs at the target when the request is serviced;
  // the fetched value reaches the blocked issuer at reply time.
  engine_.schedule_raw(rt.target_read, &amo_rmw, this,
                       static_cast<std::uint64_t>(me),
                       static_cast<std::uint64_t>(rt.target_read));
  engine_.schedule_raw(rt.complete, &amo_reply, this,
                       static_cast<std::uint64_t>(me),
                       static_cast<std::uint64_t>(rt.complete));
  engine_.block();
  return amo_[me].fetched;
}

void Domain::amo_rmw(void* ctx, std::uint64_t pe, std::uint64_t t) {
  auto& d = *static_cast<Domain*>(ctx);
  AmoSlot& a = d.amo_[pe];
  std::byte* addr = d.segments_[a.dst_pe].data() + a.dst_off;
  std::memcpy(&a.fetched, addr, sizeof a.fetched);
  if (const auto neu = apply_amo(a.op, a.fetched, a.operand, a.cond)) {
    std::memcpy(addr, &*neu, sizeof *neu);
    d.wake(a.dst_pe, a.dst_off, sizeof *neu, static_cast<sim::Time>(t));
  }
}

void Domain::amo_reply(void* ctx, std::uint64_t pe, std::uint64_t t) {
  auto& d = *static_cast<Domain*>(ctx);
  d.engine_.resume(*d.amo_[pe].fiber, static_cast<sim::Time>(t));
}

void Domain::quiet() {
  const int me = current_pe();
  engine_.advance_to(outstanding_[me]);
}

}  // namespace fabric
