// Domain: the functional core of every simulated RDMA-capable fabric API.
//
// A Domain binds together the DES engine, a net::Fabric timing oracle, and a
// software profile, and actually moves bytes between the registered memory
// segments of simulated PEs at the virtual times the oracle dictates:
//
//   * put        — payload captured at issue (OpenSHMEM local-completion
//                  semantics), memcpy'd into the target segment at delivery.
//   * get        — target memory snapshotted at the request's service time,
//                  initiator blocked until the reply arrives.
//   * amo        — read-modify-write executed in the delivery event at the
//                  target (atomicity is trivial: one event at a time).
//   * iput/iget  — NIC-offloaded 1-D strided transfers (only when the
//                  profile has hw_strided; software stacks loop puts above).
//   * quiet      — block until every remote completion this PE issued has
//                  landed.
//
// Every landed write (put, scatter record, strided element, AMO store,
// poke) wakes the fibers waiting in wait_until() on an overlapping word of
// that segment, so the libraries above implement shmem_wait_until without
// polling. The Domain also runs the one dissemination barrier the libraries
// call (barrier()), on round flags it keeps at the base of every segment.
//
// Each operation prices its transfer in one route step (a NodeChannel copy
// for a same-node peer when the node transport is on, a net::Fabric submit
// otherwise). Every put then shares one enqueue step onto its pair stream
// and one local-completion step; get and iget share one snapshot read.
//
// The vendor-style API (fabric::dmapp), the OpenSHMEM library, and the
// MPI-3 RMA subset are all thin veneers over Domain with different profiles
// and capability surfaces.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/model.hpp"
#include "net/node_channel.hpp"
#include "sim/engine.hpp"

namespace fabric {

/// Thrown by one-sided operations when the reliable-delivery layer gave up:
/// the retransmit budget was exhausted because the peer is dead (or loss is
/// sustained beyond the RetryPolicy's budget). Carries enough context for
/// runtimes to map it to language-level failure codes (STAT_FAILED_IMAGE).
class PeerFailedError : public std::runtime_error {
 public:
  PeerFailedError(const char* op, int src_pe, int dst_pe, int attempts,
                  sim::Time t);

  const char* op() const { return op_; }
  int src_pe() const { return src_pe_; }
  int dst_pe() const { return dst_pe_; }
  int attempts() const { return attempts_; }
  sim::Time time() const { return time_; }

 private:
  const char* op_;
  int src_pe_;
  int dst_pe_;
  int attempts_;
  sim::Time time_;
};

/// Remote atomic operation kinds (the OpenSHMEM/DMAPP AMO set used by the
/// paper: swap, compare-and-swap, fetch-add, fetch-inc, and bitwise ops).
enum class AmoOp {
  kSwap,
  kCompareSwap,
  kFetchAdd,
  kFetchAnd,
  kFetchOr,
  kFetchXor,
};

/// The value an AMO stores over `old`: `operand` for kSwap, `old op operand`
/// for the fetch-and-ops, and, for kCompareSwap, `operand` when `old` equals
/// `cond` and nothing (no store) when it does not. The one rule every
/// library's atomics apply, whether a NIC, an AM handler or a mutex-guarded
/// read-modify-write runs them.
constexpr std::optional<std::uint64_t> apply_amo(AmoOp op, std::uint64_t old,
                                                 std::uint64_t operand,
                                                 std::uint64_t cond) {
  switch (op) {
    case AmoOp::kSwap: return operand;
    case AmoOp::kCompareSwap:
      if (old == cond) return operand;
      return std::nullopt;
    case AmoOp::kFetchAdd: return old + operand;
    case AmoOp::kFetchAnd: return old & operand;
    case AmoOp::kFetchOr: return old | operand;
    case AmoOp::kFetchXor: return old ^ operand;
  }
  return std::nullopt;
}

/// One record of a scatter (write-combining) put: `len` payload bytes
/// starting at `payload_off` in the packed payload land at `dst_off` in the
/// target segment. Mirrors the iovec-style descriptors of ARMCI_PutV, MPI
/// indexed datatypes, and the GASNet access-region idiom.
struct ScatterRec {
  std::uint64_t dst_off;    ///< destination offset in the target segment
  std::uint32_t len;        ///< bytes for this record
  std::uint32_t payload_off;///< source offset in the packed payload
};

/// Wire overhead charged per scatter record: an (offset, length) header
/// travels with each record in the packed message.
inline constexpr std::size_t kScatterRecWire = 12;

/// Comparison operators for waits on a 64-bit word (shmem_wait_until's
/// SHMEM_CMP_* set).
enum class Cmp { kEq, kNe, kGt, kGe, kLt, kLe };

/// True when `v cmp ref` holds.
constexpr bool compare(std::int64_t v, Cmp cmp, std::int64_t ref) {
  switch (cmp) {
    case Cmp::kEq: return v == ref;
    case Cmp::kNe: return v != ref;
    case Cmp::kGt: return v > ref;
    case Cmp::kGe: return v >= ref;
    case Cmp::kLt: return v < ref;
    case Cmp::kLe: return v <= ref;
  }
  return false;
}

/// Most dissemination rounds a barrier takes, and so log2 of the most PEs a
/// Domain holds. Tree collectives above size their per-level arrays by it.
inline constexpr int kMaxRounds = 16;

/// The barrier's round flags: round r's int64 sits 8r bytes into every
/// segment. Libraries lay their own symmetric state out from here.
inline constexpr std::size_t kBarrierBytes = kMaxRounds * sizeof(std::int64_t);

/// An OpenSHMEM active set: the PEs pe_start + k*2^log_pe_stride for
/// k in [0, pe_size). The classic triplet addressing of the 1.x
/// collectives.
struct ActiveSet {
  int pe_start = 0;
  int log_pe_stride = 0;
  int pe_size = 1;

  int stride() const { return 1 << log_pe_stride; }
  int world_pe(int rel) const { return pe_start + rel * stride(); }
  /// Relative rank of a world PE in this set, or -1 if not a member.
  int rel_of(int pe) const {
    const int d = pe - pe_start;
    if (d < 0 || d % stride() != 0) return -1;
    const int rel = d / stride();
    return rel < pe_size ? rel : -1;
  }
};

class Domain {
 public:
  /// One segment of `segment_bytes` is allocated per PE; segments are
  /// symmetric (same size, addressable by (pe, offset)). Throws
  /// std::invalid_argument, before allocating any segment, when the
  /// fabric has more than 2^kMaxRounds PEs or a segment would not exceed
  /// the kBarrierBytes of round flags.
  Domain(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
         std::size_t segment_bytes);

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  int npes() const { return fabric_.npes(); }
  std::size_t segment_bytes() const { return segment_bytes_; }
  const net::SwProfile& sw() const { return sw_; }
  net::Fabric& fabric() { return fabric_; }
  sim::Engine& engine() { return engine_; }

  /// Base address of `pe`'s segment (host pointer; valid for local reads
  /// and for the delivery machinery).
  std::byte* segment(int pe);
  const std::byte* segment(int pe) const;

  /// Enables the node-local shared-segment transport: same-node puts, gets,
  /// strided/scatter transfers, and AMOs complete via direct memory
  /// operations priced by a net::NodeChannel (SPSC rings for small
  /// messages, NUMA-aware memcpy for bulk) and produce zero fabric
  /// messages. Byte movement still rides the per-pair in-order streams, so
  /// delivery ordering — and with it same-seed reproducibility — is
  /// unchanged. Elided fabric traffic is counted under the obs `node.*`
  /// family. No-op when `opts.enabled` is false; idempotent.
  void enable_node_transport(const net::NodeTransportOptions& opts);
  /// The active node transport, or nullptr when disabled.
  net::NodeChannel* node_transport() { return node_.get(); }
  const net::NodeChannel* node_transport() const { return node_.get(); }

  // ---- one-sided operations; must be called from the issuing PE's fiber ----

  /// Contiguous put. Returns after local completion (source reusable);
  /// remote completion is tracked for quiet(). If `pipelined`, the call
  /// models a non-blocking-implicit (nbi) injection. The returned times let
  /// callers with stronger semantics (e.g. GASNet's remotely-blocking
  /// gasnet_put) wait for the delivery themselves.
  net::PutCompletion put(int dst_pe, std::uint64_t dst_off, const void* src,
                         std::size_t n, bool pipelined = false);

  /// The issue half of put(), for parked steps (sim::Engine::run_parked):
  /// captures the payload and queues the delivery exactly as put() does,
  /// but returns without advancing the clock or throwing. The caller parks
  /// until `local_complete` and, when `ok` is false (retransmit budget
  /// exhausted), then raises PeerFailedError as put() would.
  net::PutCompletion put_issue(int dst_pe, std::uint64_t dst_off,
                               const void* src, std::size_t n,
                               bool pipelined = false);

  /// Writes `n` bytes into `dst_pe`'s segment immediately (at the current
  /// scheduler event's virtual time `t`) and wakes overlapping waiters at
  /// `t`. Used by active-message handlers, which mutate target memory from
  /// the scheduler context rather than through the NIC.
  void poke(int dst_pe, std::uint64_t dst_off, const void* src, std::size_t n,
            sim::Time t);

  /// Contiguous get; blocks the calling fiber until data is available.
  void get(void* dst, int src_pe, std::uint64_t src_off, std::size_t n);

  /// Vectored (write-combining) put: a single wire message carrying a packed
  /// payload plus kScatterRecWire bytes of header per record; each record is
  /// applied (memcpy + waiter wake-up) at delivery. This is the transport for
  /// iovec-style interfaces (ARMCI_PutV, MPI indexed datatypes, GASNet
  /// access regions) and the CAF runtime's aggregation buffer.
  net::PutCompletion put_scatter(int dst_pe, const ScatterRec* recs,
                                 std::size_t nrecs, const void* payload,
                                 std::size_t payload_bytes,
                                 bool pipelined = true);

  /// NIC-offloaded 1-D strided put: nelems elements of elem_bytes, source
  /// stride sst elements, destination stride dst elements (strides in
  /// *elements* as in shmem_iput). Requires sw().hw_strided.
  void iput_hw(int dst_pe, std::uint64_t dst_off, std::ptrdiff_t dst_stride,
               const void* src, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems,
               bool pipelined = false);

  /// NIC-offloaded 1-D strided get; blocks until complete.
  void iget_hw(void* dst, std::ptrdiff_t dst_stride, int src_pe,
               std::uint64_t src_off, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems);

  /// 64-bit remote atomic; blocks until the fetched value returns.
  /// `operand` is the swap/add/mask value; `cond` only used by kCompareSwap.
  std::uint64_t amo(AmoOp op, int dst_pe, std::uint64_t dst_off,
                    std::uint64_t operand, std::uint64_t cond = 0);

  /// Blocks until all puts/AMOs issued by this PE have remotely completed.
  void quiet();

  /// Ordering fence. In this model fence is implemented as quiet (the
  /// strongest legal implementation; see DESIGN.md).
  void fence() { quiet(); }

  /// Largest remote-completion timestamp outstanding for `pe`.
  sim::Time outstanding(int pe) const { return outstanding_[pe]; }

  /// Blocks the calling fiber until the int64 at `off` in its own segment
  /// satisfies `cmp`/`value`. Each landed write overlapping the word wakes
  /// the waiter at the write's delivery time (waiters wake in the order they
  /// blocked); it then re-checks. `block_op` (a string literal) labels the
  /// wait in deadlock diagnostics.
  void wait_until(std::uint64_t off, Cmp cmp, std::int64_t value,
                  const char* block_op);

  /// The step-side half of wait_until(), and its only word check: true when
  /// the word already satisfies `cmp`/`value`; otherwise registers the
  /// calling fiber as the word's watcher, parks it blocked
  /// (sim::Engine::park_blocked) and returns false. Call from a parked step.
  bool poll_or_watch(std::uint64_t off, Cmp cmp, std::int64_t value,
                     const char* block_op);

  /// Barrier over every PE, on the round flags at [0, kBarrierBytes) with
  /// the calling PE's next whole-domain generation (next_barrier_gen()).
  void barrier(bool pipelined, const char* block_op) {
    if (npes() == 1) return;
    barrier(ActiveSet{0, 0, npes()}, 0, next_barrier_gen(), pipelined,
            block_op);
  }

  /// Dissemination barrier over `peers`, which holds the calling PE: in
  /// round r, rank k puts `gen` into the round-r flag (flag_off + 8r) of
  /// rank k + 2^r, as put() with `pipelined` would, then waits until its
  /// own round-r flag reaches `gen` (the wait is labelled `block_op`).
  /// Generations only grow, so flags are reused without sense reversal.
  /// The rounds run as one parked step (sim::Engine::run_parked) whose
  /// state lives here, one per PE; the events are those of the put and
  /// wait_until calls, and the fiber is switched in once. Throws
  /// PeerFailedError, as put() does, when a round's put gives up.
  void barrier(const ActiveSet& peers, std::uint64_t flag_off,
               std::int64_t gen, bool pipelined, const char* block_op);

  /// The PE whose fiber is running: the rank every library's my_pe() /
  /// mynode() / me() reports. Must be called from a PE fiber.
  int current_pe() const {
    const sim::Fiber* f = engine_.current_fiber();
    assert(f != nullptr && "fabric operations require a PE fiber context");
    return f->pe();
  }

  /// Bumps and returns the calling PE's whole-domain barrier generation,
  /// the value a barrier on the flags at [0, kBarrierBytes) waits for.
  std::int64_t next_barrier_gen() {
    return ++barrier_[current_pe()].domain_gen;
  }

 private:
  /// One PE's barrier: its whole-domain generation, and the parked step's
  /// state, kept here rather than on the fiber's stack, which the scheduler
  /// would touch cold.
  struct BarrierStep {
    enum class Phase : std::uint8_t { kIssue, kLocalComplete, kWait };

    std::int64_t domain_gen = 0;
    // The barrier in progress.
    Domain* domain = nullptr;
    ActiveSet peers;
    int rank = 0;
    int dist = 1;
    std::uint64_t flag = 0;  ///< this round's flag
    std::int64_t gen = 0;
    const char* block_op = nullptr;
    bool pipelined = false;
    Phase phase = Phase::kIssue;
    net::PutCompletion put{};

    int peer() const { return peers.world_pe((rank + dist) % peers.pe_size); }
    static bool step(void* self) {
      return static_cast<BarrierStep*>(self)->run();
    }
    bool run();
  };

  void note_outstanding(int src_pe, sim::Time t);
  /// Resumes, at time `t`, every fiber waiting on a word of `pe`'s segment
  /// that overlaps [off, off+len), and drops them from the wait list.
  void wake(int pe, std::uint64_t off, std::size_t len, sim::Time t);
  /// Throws std::out_of_range, naming `op`, unless `nelems` (> 0) elements
  /// of `elem_bytes`, `stride` elements apart from `off`, fit in a segment.
  void check_span(const char* op, std::uint64_t off, std::ptrdiff_t stride,
                  std::size_t elem_bytes, std::size_t nelems) const;

  // ---- node-local transport ----
  //
  // When node_ is set and the peer shares the issuing PE's node, an
  // operation's route step prices it with the NodeChannel instead of the
  // fabric: node_oneway for puts (ring push or NUMA memcpy), node_roundtrip
  // for gets and AMOs. Both report a peer whose segment is detached in time
  // as a give-up (ok == false), which the op's shared completion step
  // raises, and a put then joins the same pair stream/clamp machinery as
  // fabric traffic. Faults are always honored on this path (the shared
  // segment of a killed peer is detached; stragglers copy slowly).

  bool node_routed(int src_pe, int dst_pe) const {
    return node_ != nullptr && fabric_.same_node(src_pe, dst_pe);
  }
  /// A node-route CPU cost as `pe` pays it: dilated when the fault plan
  /// makes `pe` a straggler.
  sim::Time slowed(int pe, sim::Time cost) const;
  /// Cached per-PE obs counter handles for the node.* family.
  struct NodeTele {
    std::uint64_t* puts = nullptr;
    std::uint64_t* gets = nullptr;
    std::uint64_t* amos = nullptr;
    std::uint64_t* scatters = nullptr;
    std::uint64_t* strided = nullptr;
    std::uint64_t* ring_msgs = nullptr;
    std::uint64_t* ring_stalls = nullptr;
    std::uint64_t* bulk_msgs = nullptr;
    std::uint64_t* numa_remote = nullptr;
    std::uint64_t* elided_msgs = nullptr;
    std::uint64_t* elided_bytes = nullptr;
  };
  /// The per-op counter a node-routed transfer bumps (&NodeTele::puts, ...).
  using Counter = std::uint64_t* NodeTele::*;
  NodeTele& node_tele(int pe);
  /// Prices a same-node one-way transfer (ring when small and contiguous,
  /// NUMA memcpy otherwise) with fault dilation, bumps ring/bulk telemetry
  /// and, when it lands, `count` and the elided-message counters; reports
  /// `ok == false` if the peer's segment is detached before delivery.
  /// `extra_copy` carries per-element/record gaps (forces the bulk path).
  /// Returns {local_complete, delivered, ok, 1}.
  net::PutCompletion node_oneway(int me, int dst_pe, std::size_t wire_bytes,
                                 sim::Time extra_copy, Counter count);
  /// The node route's check and telemetry for a round trip `rt` priced by
  /// the NodeChannel: `ok == false`, with the give-up at rt.exec, when the
  /// peer's segment is detached by then; otherwise bumps `count` and the
  /// elided-message counters. Returns {exec, complete, ok, 1}.
  net::RoundTrip node_roundtrip(int me, int peer, const net::NodeRoundTrip& rt,
                                std::size_t bytes, Counter count);

  // ---- the steps every put and every round trip share ----

  /// Queues a put that did not give up on its pair stream: clamps
  /// `c.delivered` into pair order, records it as outstanding, takes a
  /// PendingMsg with a `buf_bytes` payload buffer, lets `pack` fill the
  /// op-specific fields and the payload, and reserves the delivery's seq.
  /// A no-op when `!c.ok`.
  template <class Pack>
  void enqueue(int me, int dst_pe, net::PutCompletion& c,
               std::size_t buf_bytes, Pack&& pack);
  /// A put's local completion: advances the caller to `c.local_complete`,
  /// then raises PeerFailedError (`op`) when the put gave up.
  void complete_local(const char* op, int me, int dst_pe,
                      const net::PutCompletion& c);
  /// A round trip that gave up advances the caller to the give-up time and
  /// raises PeerFailedError (`op`); otherwise a no-op.
  void check_reply(const char* op, int me, int peer, const net::RoundTrip& rt);
  /// The one read under get (one element of `elem_bytes`) and iget_hw
  /// (`strided`): span check, route step, a snapshot of target memory at
  /// the service time, and the copy into `dst` and resume at reply time.
  void read(void* dst, std::ptrdiff_t dst_stride, int src_pe,
            std::uint64_t src_off, std::ptrdiff_t src_stride,
            std::size_t elem_bytes, std::size_t nelems, bool strided);

  // ---- pair streams ----
  //
  // All puts (contiguous, scatter, strided) ride per-(src, dst) in-order
  // delivery streams. A pair gets a dense pair id on first use (per-src
  // open-addressed map, SoA state arrays indexed by pair id — no nested
  // npes-sized rows, which at 16k PEs used to cost gigabytes). Each queued
  // message is a pooled PendingMsg with a pooled payload buffer; exactly
  // one engine event per stream is armed at a time, carrying the head
  // message's *reserved* sequence number so the global (time, seq) pop
  // order — and therefore every simulated result — is byte-identical to
  // scheduling one closure event per message.

  struct PendingMsg {
    enum class Op : std::uint8_t { kContig, kScatter, kStrided };

    PendingMsg* next;       ///< FIFO link within the pair stream
    sim::Time t;            ///< clamped delivery time
    std::uint64_t seq;      ///< engine seq reserved at the issue site
    int dst_pe;
    Op op;
    std::uint8_t buf_cls;   ///< payload buffer size class (log2 capacity)
    std::uint32_t elem_bytes;    // kStrided
    std::uint32_t nelems;        // kStrided: elements; kScatter: records
    std::uint64_t dst_off;       // kContig / kStrided base offset
    std::ptrdiff_t dst_stride;   // kStrided, in elements
    std::uint32_t payload_bytes; // payload length within buf
    std::uint32_t payload_off;   // kScatter: payload start (after records)
    std::byte* buf;              ///< pooled; records (scatter) + payload
  };

  /// Slab pool of PendingMsg nodes (free list; no per-message heap traffic
  /// in steady state).
  class MsgPool {
   public:
    PendingMsg* acquire();
    void release(PendingMsg* m) {
      m->next = free_;
      free_ = m;
    }

   private:
    static constexpr std::size_t kSlabMsgs = 256;
    struct Slab {
      PendingMsg msgs[kSlabMsgs];
    };
    std::vector<std::unique_ptr<Slab>> slabs_;
    PendingMsg* free_ = nullptr;
    PendingMsg* bump_ = nullptr;
    std::size_t bump_left_ = 0;
  };

  /// Power-of-two size-class pool for payload buffers. Buffers are recycled
  /// through per-class free lists (the next pointer lives in the buffer's
  /// first bytes while free); everything is freed at Domain teardown.
  class BufPool {
   public:
    std::byte* acquire(std::size_t n, std::uint8_t* cls_out);
    void release(std::byte* p, std::uint8_t cls);
    ~BufPool();

   private:
    std::byte* free_[48] = {};
    std::vector<std::byte*> all_;
  };

  /// Dense pair ids: per-src open-addressed map dst -> id (linear probing,
  /// power-of-two capacity). Communication degree per PE is small in every
  /// workload (tree fan-ins, halo neighbors), so tables stay tiny.
  std::uint32_t pair_id(int src_pe, int dst_pe);

  /// In-order (RC-style) delivery clamp for one pair: a message never lands
  /// before an earlier message on the same pair, even when the timing
  /// oracle produced an inversion (size inversion on the intra-node path,
  /// loss retransmits). Strictly increasing: a timestamp tie would let a
  /// later message's memcpy run in the same event batch as the earlier
  /// one's wake, and a waiter woken by a data+flag pair must get to consume
  /// the slot before the pair's next generation lands on it. This is the
  /// same-pair point-to-point ordering real RDMA transports give, and the
  /// property the CAF deferred-quiet pipeline relies on for WAW safety.
  sim::Time clamp_in_order(std::uint32_t pair, sim::Time delivered) {
    sim::Time& last = fifo_last_[pair];
    last = delivered > last ? delivered : last + 1;
    return last;
  }

  /// Queues `m` on its pair stream; arms the stream's delivery event if the
  /// stream was idle. `m->t`/`m->seq` must already be set.
  void stream_append(std::uint32_t pair, PendingMsg* m);
  /// Delivery event body: applies the head message of `pair`, recycles it,
  /// and re-arms the stream for the next message (at its own reserved seq).
  void stream_fire(std::uint32_t pair);
  static void stream_fire_tramp(void* ctx, std::uint64_t pair, std::uint64_t);
  void apply(const PendingMsg& m);

  /// Zero-initialized segment storage backed by calloc so large segments
  /// get lazily-zeroed pages from the OS (simulations with thousands of
  /// PEs would otherwise spend their time memset-ing untouched memory).
  class ZeroedBuffer {
   public:
    ZeroedBuffer() = default;
    explicit ZeroedBuffer(std::size_t n);
    ~ZeroedBuffer();
    ZeroedBuffer(ZeroedBuffer&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
    ZeroedBuffer& operator=(ZeroedBuffer&& o) noexcept {
      std::swap(p_, o.p_);
      return *this;
    }
    ZeroedBuffer(const ZeroedBuffer&) = delete;
    ZeroedBuffer& operator=(const ZeroedBuffer&) = delete;
    std::byte* data() { return p_; }
    const std::byte* data() const { return p_; }

   private:
    std::byte* p_ = nullptr;
  };

  sim::Engine& engine_;
  net::Fabric& fabric_;
  std::unique_ptr<net::NodeChannel> node_;  ///< null = fabric-only (default)
  std::vector<NodeTele> node_tele_;
  net::SwProfile sw_;
  std::size_t segment_bytes_;
  std::vector<ZeroedBuffer> segments_;
  std::vector<sim::Time> outstanding_;

  MsgPool msg_pool_;
  BufPool buf_pool_;
  struct PairSlot {
    int dst;           ///< -1 marks an empty slot
    std::uint32_t id;
  };
  struct PairTable {
    std::vector<PairSlot> slots;  ///< power-of-two, linear probing
    std::uint32_t count = 0;
  };
  std::vector<PairTable> pair_map_;   ///< per-src dst -> dense pair id
  // SoA per-pair stream state, indexed by pair id.
  std::vector<sim::Time> fifo_last_;  ///< latest delivery scheduled on pair
  std::vector<PendingMsg*> head_;     ///< oldest queued message (FIFO)
  std::vector<PendingMsg*> tail_;

  struct Watcher {
    std::uint64_t off;  ///< watched int64 word
    sim::Fiber* fiber;
  };
  std::vector<std::vector<Watcher>> watchers_;  ///< per PE, in block order
  std::vector<BarrierStep> barrier_;            ///< per PE

  /// One PE's AMO in flight: what its read-modify-write event applies, and
  /// the fetched value it leaves for the issuer. The issuing fiber blocks
  /// until the reply, so a PE has at most one.
  struct AmoSlot {
    AmoOp op;
    int dst_pe;
    std::uint64_t dst_off;
    std::uint64_t operand;
    std::uint64_t cond;
    std::uint64_t fetched;
    sim::Fiber* fiber;
  };
  /// amo()'s two events (the RMW at the target, the reply at the issuer),
  /// as raw calls on the issuer's slot: `pe` indexes amo_, `t` is the time.
  static void amo_rmw(void* ctx, std::uint64_t pe, std::uint64_t t);
  static void amo_reply(void* ctx, std::uint64_t pe, std::uint64_t t);
  std::vector<AmoSlot> amo_;  ///< per PE, sized on the first AMO
};

}  // namespace fabric
