// Mpi3Conduit — a CAF runtime over MPI-3.0 one-sided communication.
//
// Table I lists two CAF implementations on MPI (Rice CAF 2.0 and Intel's),
// and the paper's related work (§VI, Yang et al. [24]) discusses the
// MPI-interoperable port in depth. This conduit maps the runtime onto the
// mpi3::Window passive-target subset:
//
//   put/get  → MPI_Put / MPI_Get (+ MPI_Win_flush_all for quiet);
//   atomics  → MPI_Fetch_and_op / MPI_Compare_and_swap (MPI-3 has the full
//              set natively, unlike GASNet or ARMCI);
//   1-D strided → the Conduit base's software loop of MPI_Put/Get (a real
//              implementation would use datatypes; the per-op software
//              overhead — the very thing Figure 2 charges MPI for —
//              dominates either way);
//   barrier  → MPI_Barrier.
#pragma once

#include "caf/conduit.hpp"
#include "mpi3/rma.hpp"

namespace caf {

class Mpi3Conduit final : public Conduit {
 public:
  explicit Mpi3Conduit(mpi3::Window& win)
      : Conduit(win.domain()), win_(win) {}

  bool hw_strided() const override { return false; }
  bool native_amo() const override { return true; }

  std::uint64_t allocate(std::size_t bytes) override {
    return win_.allocate_collective(bytes);
  }
  void deallocate(std::uint64_t offset) override {
    win_.free_collective(offset);
  }

  void do_barrier() override { win_.barrier(); }

  mpi3::Window& window() { return win_; }

 protected:
  const shmem::CollectiveAllocLog& alloc_log() const override {
    return win_.heap_log();
  }
  void do_put(int rank, std::uint64_t dst_off, const void* src, std::size_t n,
              bool /*nbi*/) override {
    // MPI_Put is always "nbi" (origin completion at flush); the simulated
    // Window charges the blocking-issue overhead either way, matching the
    // per-op software cost Figure 2 measures.
    win_.put(src, n, rank, dst_off);
  }
  void do_get(void* dst, int rank, std::uint64_t src_off,
              std::size_t n) override {
    win_.get(dst, n, rank, src_off);
  }
  void do_put_scatter(int rank, const fabric::ScatterRec* recs,
                      std::size_t nrecs, const void* payload,
                      std::size_t payload_bytes) override {
    win_.put_scatter(recs, nrecs, payload, payload_bytes, rank);
  }
  void do_quiet() override { win_.flush_all(); }
  std::int64_t do_amo(AmoOp op, int rank, std::uint64_t off,
                      std::int64_t operand, std::int64_t cond) override {
    if (op == AmoOp::kCompareSwap) {
      return win_.compare_and_swap(cond, operand, rank, off);
    }
    return win_.fetch_and_op(op, operand, rank, off);
  }

 private:
  mpi3::Window& win_;
};

}  // namespace caf
