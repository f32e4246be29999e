// GasnetConduit — the baseline UHCAF communication layer (Table I).
//
// GASNet provides one-sided put/get and active messages but no remote
// atomics and no strided transfers, so:
//
//   * 1-D strided transfers are the Conduit base's software loop of
//     contiguous nbi puts / blocking gets;
//   * remote atomics are emulated with AM round-trips whose handler
//     executes the read-modify-write on the target CPU (serializing there —
//     the contention behaviour that makes Figure 8's GASNet locks slower);
//   * collective allocation is replayed through a shared log (GASNet has no
//     symmetric allocator; UHCAF manages the segment itself).
#pragma once

#include "caf/conduit.hpp"
#include "gasnet/gasnet.hpp"
#include "shmem/heap.hpp"

namespace caf {

class GasnetConduit final : public Conduit {
 public:
  explicit GasnetConduit(gasnet::World& world);

  bool hw_strided() const override { return false; }
  bool native_amo() const override { return false; }

  std::uint64_t allocate(std::size_t bytes) override;
  void deallocate(std::uint64_t offset) override;

  void do_barrier() override { world_.barrier(); }

  gasnet::World& world() { return world_; }

 protected:
  const shmem::CollectiveAllocLog& alloc_log() const override {
    return heap_;
  }
  void do_put(int rank, std::uint64_t dst_off, const void* src, std::size_t n,
              bool nbi) override {
    if (nbi) {
      world_.put_nbi(rank, dst_off, src, n);
    } else {
      // UHCAF-over-GASNet uses nbi puts for RMA and syncs at fences; the
      // blocking flavour here still has only local-completion semantics to
      // match the SHMEM conduit's putmem (CAF inserts quiet itself).
      world_.put_nbi(rank, dst_off, src, n);
      // Charge the blocking call's extra bookkeeping.
      world_.engine().advance(sw().put_overhead - sw().per_msg_gap);
    }
  }
  void do_get(void* dst, int rank, std::uint64_t src_off,
              std::size_t n) override {
    world_.get(dst, rank, src_off, n);
  }
  void do_put_scatter(int rank, const fabric::ScatterRec* recs,
                      std::size_t nrecs, const void* payload,
                      std::size_t payload_bytes) override {
    world_.put_scatter_nbi(rank, recs, nrecs, payload, payload_bytes);
  }
  void do_quiet() override { world_.wait_syncnbi_puts(); }
  /// An AM round trip whose handler runs the read-modify-write on the
  /// target CPU.
  std::int64_t do_amo(AmoOp op, int rank, std::uint64_t off,
                      std::int64_t operand, std::int64_t cond) override;

 private:
  gasnet::World& world_;
  int amo_handler_ = -1;

  // Collective-allocation replay log (same discipline as shmalloc).
  shmem::CollectiveAllocLog heap_;
};

}  // namespace caf
