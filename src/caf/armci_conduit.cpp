#include "caf/armci_conduit.hpp"

#include <stdexcept>

namespace caf {

ArmciConduit::ArmciConduit(armci::World& world)
    : Conduit(world.domain()), world_(world) {}

std::int64_t ArmciConduit::do_amo(AmoOp op, int rank, std::uint64_t off,
                                  std::int64_t operand, std::int64_t cond) {
  // The emulation mutex is created collectively by post_init(), which
  // Runtime::init() calls on every image before any atomic.
  if (rmw_mutex_ < 0) {
    throw std::logic_error(
        "ArmciConduit: call post_init() collectively before atomics");
  }
  world_.lock(rmw_mutex_, rank);
  std::uint64_t old = 0;
  world_.get(&old, rank, off, sizeof old);
  // A failed compare-and-swap writes the old value back: the emulation
  // always stores.
  const std::uint64_t neu =
      fabric::apply_amo(op, old, static_cast<std::uint64_t>(operand),
                        static_cast<std::uint64_t>(cond))
          .value_or(old);
  world_.put(rank, off, &neu, sizeof neu);
  world_.all_fence();
  world_.unlock(rmw_mutex_, rank);
  return static_cast<std::int64_t>(old);
}

}  // namespace caf
