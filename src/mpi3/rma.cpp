#include "mpi3/rma.hpp"

#include <cassert>

namespace mpi3 {

Window::Window(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
               std::size_t win_bytes)
    : engine_(engine) {
  domain_ = std::make_unique<fabric::Domain>(engine, fabric, std::move(sw),
                                             win_bytes);
  heap_ = std::make_unique<shmem::CollectiveAllocLog>(
      domain_->npes(), fabric::kBarrierBytes,
      win_bytes - fabric::kBarrierBytes);
}

Window::~Window() = default;

void Window::launch(std::function<void()> rank_main) {
  for (int r = 0; r < size(); ++r) engine_.spawn(r, rank_main);
}

int Window::rank() const { return domain_->current_pe(); }

void Window::put(const void* origin, std::size_t n, int target_rank,
                 std::uint64_t target_off) {
  domain_->put(target_rank, target_off, origin, n, /*pipelined=*/false);
}

void Window::get(void* origin, std::size_t n, int target_rank,
                 std::uint64_t target_off) {
  domain_->get(origin, target_rank, target_off, n);
}

void Window::put_scatter(const fabric::ScatterRec* recs, std::size_t nrecs,
                         const void* payload, std::size_t payload_bytes,
                         int target_rank) {
  // A single MPI_Put with an indexed datatype pays one call overhead, not
  // one per record — model it as one non-pipelined injection.
  domain_->put_scatter(target_rank, recs, nrecs, payload, payload_bytes,
                       /*pipelined=*/false);
}

std::int64_t Window::fetch_and_op(fabric::AmoOp op, std::int64_t operand,
                                  int target_rank, std::uint64_t target_off) {
  assert(op != fabric::AmoOp::kCompareSwap && "use compare_and_swap");
  return static_cast<std::int64_t>(domain_->amo(
      op, target_rank, target_off, static_cast<std::uint64_t>(operand)));
}

std::int64_t Window::compare_and_swap(std::int64_t compare, std::int64_t value,
                                      int target_rank,
                                      std::uint64_t target_off) {
  return static_cast<std::int64_t>(
      domain_->amo(fabric::AmoOp::kCompareSwap, target_rank, target_off,
                   static_cast<std::uint64_t>(value),
                   static_cast<std::uint64_t>(compare)));
}

void Window::flush_all() { domain_->quiet(); }

std::uint64_t Window::allocate_collective(std::size_t bytes) {
  const std::uint64_t off = heap_->allocate(rank(), bytes, "mpi3 allocate");
  barrier();
  return off;
}

void Window::free_collective(std::uint64_t off) {
  heap_->release(rank(), off, "mpi3 free");
  barrier();
}

void Window::barrier() {
  // Each round's put is a blocking MPI_Put, as put() issues it.
  domain_->barrier(/*pipelined=*/false, "mpi3_wait_until");
}

}  // namespace mpi3
