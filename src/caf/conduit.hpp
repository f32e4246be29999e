// caf::Conduit — the communication-layer abstraction of the UHCAF runtime.
//
// The paper's UHCAF runtime can execute over GASNet, ARMCI, MPI-3 or (this
// paper's contribution) OpenSHMEM. A conduit is one base over the library's
// fabric::Domain plus the hooks that are that library's Table II mapping:
//
//   * identity — rank, image count, segments, software profile, engine — is
//     read from the Domain passed to the constructor, the same for every
//     conduit;
//   * collective symmetric allocation       (allocate/deallocate — Table II
//     maps CAF `allocate` to `shmalloc`);
//   * contiguous one-sided put/get          (§IV-B, with quiet for CAF's
//     stronger completion ordering);
//   * 1-D strided put/get                   (§IV-C building block: a
//     library call when the library has one, else the base class's
//     software loop of per-element puts and gets);
//   * 64-bit remote atomics                 (§IV-D locks; one do_amo hook
//     per conduit; conduits without native atomics emulate them, at a
//     cost, and all of them apply fabric::apply_amo's rule);
//   * local wait on a symmetric 64-bit word (MCS spin-on-local) and
//     scheduler-context pokes — shared by every conduit, since the Domain's
//     wait table wakes the waiters;
//   * barrier. Collectives are built above the conduit from these
//     primitives (caf::CollectiveEngine).
//
// All offsets are into the conduit's symmetric segment; CAF image indices
// here are 0-based ranks (the Runtime converts to CAF's 1-based images).
//
// The public RMA entry points (put/iput/put_scatter/quiet/amo/...) are
// NON-virtual fronts over protected do_* hooks: the base class maintains a
// per-issuing-rank outstanding-put tracker so quiet() is elided (a cheap
// no-op, no conduit call) when nothing is in flight. This is the
// "deferred-quiet completion tracking" half of the nonblocking RMA pipeline;
// the runtime's aggregation buffer sits above it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "fabric/domain.hpp"
#include "net/model.hpp"
#include "obs/obs.hpp"
#include "shmem/world.hpp"  // for the shmem::ReduceOp enum reused here

namespace caf {

using AmoOp = fabric::AmoOp;
using Cmp = fabric::Cmp;
using ReduceOp = shmem::ReduceOp;

class Conduit {
 public:
  virtual ~Conduit() = default;

  // ---- identity & segment: reads of the conduit's fabric::Domain ----
  int rank() const { return domain_.current_pe(); }  // 0-based
  int nranks() const { return domain_.npes(); }
  std::byte* segment(int rank) { return domain_.segment(rank); }
  std::size_t segment_bytes() const { return domain_.segment_bytes(); }
  const net::SwProfile& sw() const { return domain_.sw(); }
  sim::Engine& engine() { return domain_.engine(); }

  /// The fabric::Domain this conduit's RMA rides on. Lets the runtime
  /// enable Domain-level features (the node-local shared-segment transport),
  /// backs wait_until()/poke(), and lets pricing layers (the collectives
  /// selector, caf::NodeHeap) query its state without knowing the concrete
  /// conduit type.
  fabric::Domain* rma_domain() { return &domain_; }

  /// True when the conduit's 1-D strided transfers are NIC-offloaded
  /// (Cray SHMEM over DMAPP); false when they loop in software
  /// (MVAPICH2-X SHMEM, GASNet).
  virtual bool hw_strided() const = 0;
  /// True when remote atomics run on the NIC; false when they are
  /// active-message emulations (GASNet).
  virtual bool native_amo() const = 0;

  /// True when `target`'s segment is directly load/store addressable from
  /// the calling rank. Layers above (the hierarchical collectives engine)
  /// use this capability query to replace intra-node network messages with
  /// host copies. The default is the node transport's reach; ShmemConduit
  /// adds shmem_ptr's.
  virtual bool direct_reachable(int target) {
    return node_transport_reachable(target);
  }

  /// True when the node-local shared-segment transport is active and
  /// `target` shares the calling rank's node: same-node RMA to it completes
  /// via memcpy/SPSC rings with zero fabric messages.
  bool node_transport_reachable(int target) {
    return domain_.node_transport() != nullptr &&
           domain_.fabric().same_node(rank(), target);
  }

  /// Collective hook invoked once per image by Runtime::init() after the
  /// runtime's internal allocations; conduits needing collective setup
  /// (e.g. ARMCI mutex creation) override it.
  virtual void post_init() {}

  /// Scheduler-context store into `rank`'s segment at virtual time `t`;
  /// blocked waiters on the written words wake at `t`. Used by the
  /// runtime's failure handler (and AM handlers) which mutate target memory
  /// from the event loop rather than through a fiber's NIC path.
  void poke(int rank, std::uint64_t off, const void* src, std::size_t n,
            sim::Time t) {
    domain_.poke(rank, off, src, n, t);
  }

  // ---- collective symmetric allocation ----
  /// Collective; every rank calls with the same size and receives the same
  /// segment offset. Includes an implicit barrier.
  virtual std::uint64_t allocate(std::size_t bytes) = 0;
  virtual void deallocate(std::uint64_t offset) = 0;
  /// Zeroes [off, off+n) of the calling rank's segment, inside one live
  /// allocation. Writes only bytes an earlier allocation handed out: the
  /// rest is still zero from the calloc'd segment, so zeroing a fresh area
  /// faults in no pages (shmem::CollectiveAllocLog::clear).
  void clear(std::uint64_t off, std::size_t n) {
    alloc_log().clear(segment(rank()), off, n);
  }

  // ---- one-sided RMA (non-virtual fronts over do_* hooks) ----
  void put(int rank, std::uint64_t dst_off, const void* src, std::size_t n,
           bool nbi) {
    note_put(rank);
    obs::Span sp(obs::Cat::kPut, n, static_cast<std::uint32_t>(rank));
    do_put(rank, dst_off, src, n, nbi);
  }
  void get(void* dst, int rank, std::uint64_t src_off, std::size_t n) {
    obs::Span sp(obs::Cat::kGet, n, static_cast<std::uint32_t>(rank));
    do_get(dst, rank, src_off, n);
  }
  /// 1-D strided put/get; strides in elements (shmem_iput conventions).
  void iput(int rank, std::uint64_t dst_off, std::ptrdiff_t dst_stride,
            const void* src, std::ptrdiff_t src_stride, std::size_t elem_bytes,
            std::size_t nelems) {
    note_put(rank);
    obs::Span sp(obs::Cat::kIput, elem_bytes * nelems,
                 static_cast<std::uint32_t>(rank));
    do_iput(rank, dst_off, dst_stride, src, src_stride, elem_bytes, nelems);
  }
  void iget(void* dst, std::ptrdiff_t dst_stride, int rank,
            std::uint64_t src_off, std::ptrdiff_t src_stride,
            std::size_t elem_bytes, std::size_t nelems) {
    obs::Span sp(obs::Cat::kIget, elem_bytes * nelems,
                 static_cast<std::uint32_t>(rank));
    do_iget(dst, dst_stride, rank, src_off, src_stride, elem_bytes, nelems);
  }
  /// Vectored (write-combining) put: packed payload + per-record headers as
  /// one nbi message, scattered at the target. Completion via quiet().
  void put_scatter(int rank, const fabric::ScatterRec* recs, std::size_t nrecs,
                   const void* payload, std::size_t payload_bytes) {
    Tracker& t = note_put(rank);
    ++*t.scatter_msgs;
    obs::Span sp(obs::Cat::kScatter, payload_bytes,
                 static_cast<std::uint32_t>(rank));
    do_put_scatter(rank, recs, nrecs, payload, payload_bytes);
  }
  /// Remote completion of all outstanding puts from this rank. Elided (no
  /// conduit call at all) when the tracker shows nothing in flight — the
  /// "cheap no-op" half of deferred-quiet.
  void quiet() {
    Tracker& t = tracker();
    ++*t.quiet_calls;
    if (t.dirty.empty()) {
      ++*t.quiet_elided;
      return;
    }
    obs::Span sp(obs::Cat::kQuiet, t.dirty.size());
    do_quiet();
    // clear() keeps the bucket array, so the usual handful of targets reuses
    // it without an allocation; a set that outgrew it is dropped instead, so
    // a rank that once put to every image holds no O(nranks()) table.
    if (t.dirty.bucket_count() > kTrackerKeptBuckets) {
      t.dirty = std::unordered_set<int>();
    } else {
      t.dirty.clear();
    }
  }

  /// True when this rank has issued puts to `target` not yet covered by a
  /// quiet().
  bool pending(int target) { return tracker().dirty.count(target) != 0; }
  /// True when any put from this rank is outstanding.
  bool pending_any() { return !tracker().dirty.empty(); }
  /// Buckets this rank's dirty-target set holds; at most
  /// kTrackerKeptBuckets after a quiet(), whatever it held before.
  std::size_t tracker_buckets() { return tracker().dirty.bucket_count(); }
  /// Largest bucket array a quiet() keeps for reuse (libstdc++ starts a
  /// set at 13 buckets).
  static constexpr std::size_t kTrackerKeptBuckets = 16;

  // ---- 64-bit remote atomics (a non-virtual front over do_amo) ----
  /// Applies `op` to the int64 at `off` in `rank`'s segment and returns the
  /// old value. `operand` is the swap/add/mask value; `cond` is read only by
  /// kCompareSwap, which stores `operand` when the word equals `cond`.
  std::int64_t amo(AmoOp op, int rank, std::uint64_t off,
                   std::int64_t operand, std::int64_t cond = 0) {
    obs::Span sp(obs::Cat::kAmo, 8, static_cast<std::uint32_t>(rank));
    return do_amo(op, rank, off, operand, cond);
  }

  // ---- synchronization ----
  /// Blocks until the 64-bit word at `off` in the *local* segment satisfies
  /// cmp/value (woken by remote deliveries; no busy polling).
  void wait_until(std::uint64_t off, Cmp cmp, std::int64_t value) {
    domain_.wait_until(off, cmp, value, "caf_wait_until");
  }
  void barrier() {
    obs::Span sp(obs::Cat::kBarrier);
    do_barrier();
  }

 protected:
  explicit Conduit(fabric::Domain& domain) : domain_(domain) {}

  // ---- RMA hooks implemented by each conduit ----
  virtual void do_put(int rank, std::uint64_t dst_off, const void* src,
                      std::size_t n, bool nbi) = 0;
  virtual void do_get(void* dst, int rank, std::uint64_t src_off,
                      std::size_t n) = 0;
  /// Default: a software loop, one nbi put per element (GASNet and MPI-3
  /// have no strided call). Conduits with a strided call override.
  virtual void do_iput(int rank, std::uint64_t dst_off,
                       std::ptrdiff_t dst_stride, const void* src,
                       std::ptrdiff_t src_stride, std::size_t elem_bytes,
                       std::size_t nelems) {
    const auto* s = static_cast<const std::byte*>(src);
    const auto e = static_cast<std::ptrdiff_t>(elem_bytes);
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(nelems); ++i) {
      do_put(rank, dst_off + static_cast<std::uint64_t>(i * dst_stride * e),
             s + i * src_stride * e, elem_bytes, /*nbi=*/true);
    }
  }
  /// Default: a software loop, one blocking get per element.
  virtual void do_iget(void* dst, std::ptrdiff_t dst_stride, int rank,
                       std::uint64_t src_off, std::ptrdiff_t src_stride,
                       std::size_t elem_bytes, std::size_t nelems) {
    auto* d = static_cast<std::byte*>(dst);
    const auto e = static_cast<std::ptrdiff_t>(elem_bytes);
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(nelems); ++i) {
      do_get(d + i * dst_stride * e, rank,
             src_off + static_cast<std::uint64_t>(i * src_stride * e),
             elem_bytes);
    }
  }
  /// Default: record-at-a-time nbi puts (no wire-level combining). Conduits
  /// with a vectored native call (shmemx scatter, GASNet access regions,
  /// ARMCI_PutV, MPI datatypes) override for one-message delivery.
  virtual void do_put_scatter(int rank, const fabric::ScatterRec* recs,
                              std::size_t nrecs, const void* payload,
                              std::size_t payload_bytes) {
    const auto* p = static_cast<const std::byte*>(payload);
    for (std::size_t i = 0; i < nrecs; ++i) {
      do_put(rank, recs[i].dst_off, p + recs[i].payload_off, recs[i].len,
             /*nbi=*/true);
    }
    (void)payload_bytes;
  }
  virtual void do_quiet() = 0;

  // ---- atomic / barrier hooks implemented by each conduit ----
  virtual std::int64_t do_amo(AmoOp op, int rank, std::uint64_t off,
                              std::int64_t operand, std::int64_t cond) = 0;
  virtual void do_barrier() = 0;
  /// The replay log behind allocate()/deallocate().
  virtual const shmem::CollectiveAllocLog& alloc_log() const = 0;

 private:
  /// Per-issuing-rank dirty-target tracking. All images share one Conduit
  /// object per stack, so state is keyed by the calling fiber's rank. The
  /// dirty set holds only the targets put to since the last quiet, so an
  /// image's tracker costs what it touches, not nranks() bytes.
  /// Pipeline counters live in the obs registry under "rma.*" keyed by this
  /// rank; the registry zeroes values in place on reset, so the cached
  /// handles stay valid across back-to-back runs on one stack.
  struct Tracker {
    std::unordered_set<int> dirty;  ///< targets with puts in flight
    std::uint64_t* tracked_puts = nullptr;
    std::uint64_t* scatter_msgs = nullptr;
    std::uint64_t* quiet_calls = nullptr;
    std::uint64_t* quiet_elided = nullptr;
  };

  Tracker& tracker() {
    if (trk_.empty()) trk_.resize(static_cast<std::size_t>(nranks()));
    Tracker& t = trk_[static_cast<std::size_t>(rank())];
    if (t.tracked_puts == nullptr) {
      auto& reg = obs::registry();
      const int r = rank();
      t.tracked_puts = &reg.counter(r, "rma.tracked_puts");
      t.scatter_msgs = &reg.counter(r, "rma.scatter_msgs");
      t.quiet_calls = &reg.counter(r, "rma.quiet_calls");
      t.quiet_elided = &reg.counter(r, "rma.quiet_elided");
    }
    return t;
  }

  Tracker& note_put(int target) {
    Tracker& t = tracker();
    ++*t.tracked_puts;
    t.dirty.insert(target);
    return t;
  }

  fabric::Domain& domain_;
  std::vector<Tracker> trk_;
};

}  // namespace caf
