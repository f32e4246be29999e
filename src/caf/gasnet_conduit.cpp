#include "caf/gasnet_conduit.hpp"

#include <cstring>

namespace caf {

GasnetConduit::GasnetConduit(gasnet::World& world)
    : Conduit(world.domain()),
      world_(world),
      // User allocations start past the barrier flags.
      heap_(world.nodes(), fabric::kBarrierBytes,
            world.seg_bytes() - fabric::kBarrierBytes) {
  // The AMO-emulation handler: runs on the target CPU, performs the RMW on
  // the target's segment at the handler's virtual time, replies with the
  // fetched value. poke() wakes the waiters spinning on the word.
  amo_handler_ = world_.register_handler(
      [this](const gasnet::Token& tok, std::span<const std::byte> payload,
             std::uint64_t off, std::uint64_t op) -> std::uint64_t {
        // payload = [operand, cond, target] as int64s: the handler recovers
        // the node it runs on from the trailing rank field.
        std::uint64_t operand = 0, cond = 0;
        std::int64_t target = 0;
        std::memcpy(&operand, payload.data(), 8);
        std::memcpy(&cond, payload.data() + 8, 8);
        std::memcpy(&target, payload.data() + 16, 8);
        std::uint64_t old = 0;
        std::memcpy(&old, segment(static_cast<int>(target)) + off, 8);
        if (const auto neu = fabric::apply_amo(static_cast<AmoOp>(op), old,
                                               operand, cond)) {
          poke(static_cast<int>(target), off, &*neu, 8, tok.when);
        }
        return old;
      });
}

std::int64_t GasnetConduit::do_amo(AmoOp op, int rank, std::uint64_t off,
                                   std::int64_t operand, std::int64_t cond) {
  std::int64_t payload[3] = {operand, cond, rank};
  return static_cast<std::int64_t>(world_.am_request_reply(
      rank, amo_handler_, off, static_cast<std::uint64_t>(op), payload,
      sizeof payload));
}

std::uint64_t GasnetConduit::allocate(std::size_t bytes) {
  const std::uint64_t off =
      heap_.allocate(world_.mynode(), bytes, "GasnetConduit::allocate");
  world_.barrier();
  return off;
}

void GasnetConduit::deallocate(std::uint64_t offset) {
  heap_.release(world_.mynode(), offset, "GasnetConduit::deallocate");
  world_.barrier();
}

}  // namespace caf
