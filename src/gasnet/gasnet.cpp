#include "gasnet/gasnet.hpp"

#include <cassert>
#include <cstring>

namespace gasnet {

World::World(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
             std::size_t seg_bytes)
    : engine_(engine) {
  domain_ = std::make_unique<fabric::Domain>(engine, fabric, std::move(sw),
                                             seg_bytes);
  // GASNet barriers are AM-based in every conduit: the notify message runs
  // a handler on the target CPU that bumps the round flag.
  barrier_handler_ = register_handler(
      [this](const Token& tok, std::span<const std::byte>, std::uint64_t off,
             std::uint64_t gen) -> std::uint64_t {
        const auto g = static_cast<std::int64_t>(gen);
        domain_->poke(tok.dst_node, off, &g, sizeof g, tok.when);
        return 0;
      });
}

World::~World() = default;

void World::launch(std::function<void()> node_main) {
  for (int node = 0; node < nodes(); ++node) {
    engine_.spawn(node, node_main);
  }
}

int World::mynode() const { return domain_->current_pe(); }

void World::put(int node, std::uint64_t dst_off, const void* src,
                std::size_t n) {
  // gasnet_put blocks until remote completion.
  const auto c = domain_->put(node, dst_off, src, n, /*pipelined=*/false);
  engine_.advance_to(c.delivered);
}

void World::put_nbi(int node, std::uint64_t dst_off, const void* src,
                    std::size_t n) {
  domain_->put(node, dst_off, src, n, /*pipelined=*/true);
}

void World::put_scatter_nbi(int node, const fabric::ScatterRec* recs,
                            std::size_t nrecs, const void* payload,
                            std::size_t payload_bytes) {
  domain_->put_scatter(node, recs, nrecs, payload, payload_bytes,
                       /*pipelined=*/true);
}

void World::get(void* dst, int node, std::uint64_t src_off, std::size_t n) {
  domain_->get(dst, node, src_off, n);
}

void World::wait_syncnbi_puts() { domain_->quiet(); }

int World::register_handler(Handler fn) {
  handlers_.push_back(std::move(fn));
  return static_cast<int>(handlers_.size()) - 1;
}

void World::am_request(int node, int handler, std::uint64_t arg0,
                       std::uint64_t arg1, const void* payload,
                       std::size_t payload_bytes) {
  assert(handler >= 0 && handler < static_cast<int>(handlers_.size()));
  const int me = mynode();
  const auto rt = domain_->fabric().submit_am(me, node, payload_bytes,
                                              domain_->sw(), engine_.now());
  if (!rt.ok) {
    engine_.advance(domain_->sw().put_overhead);
    throw fabric::PeerFailedError("am", me, node, rt.attempts, rt.complete);
  }
  std::vector<std::byte> data(payload_bytes);
  if (payload_bytes > 0) std::memcpy(data.data(), payload, payload_bytes);
  engine_.schedule(rt.target_read, [this, handler, me, node, arg0, arg1,
                                    p = std::move(data), t = rt.target_read] {
    Token tok{*this, me, node, t};
    (void)handlers_[handler](tok, std::span<const std::byte>(p), arg0, arg1);
  });
  // Request injection costs the sender one put overhead.
  engine_.advance(domain_->sw().put_overhead);
}

std::uint64_t World::am_request_reply(int node, int handler,
                                      std::uint64_t arg0, std::uint64_t arg1,
                                      const void* payload,
                                      std::size_t payload_bytes) {
  assert(handler >= 0 && handler < static_cast<int>(handlers_.size()));
  const int me = mynode();
  const auto rt = domain_->fabric().submit_am(me, node, payload_bytes,
                                              domain_->sw(), engine_.now());
  if (!rt.ok) {
    engine_.advance_to(rt.complete);
    throw fabric::PeerFailedError("am_reply", me, node, rt.attempts,
                                  rt.complete);
  }
  std::vector<std::byte> data(payload_bytes);
  if (payload_bytes > 0) std::memcpy(data.data(), payload, payload_bytes);
  sim::Fiber* f = engine_.current_fiber();
  f->set_block_op("gasnet_am_reply", node);
  auto reply = std::make_shared<std::uint64_t>(0);
  engine_.schedule(rt.target_read, [this, handler, me, node, arg0, arg1, reply,
                                    p = std::move(data), t = rt.target_read] {
    Token tok{*this, me, node, t};
    *reply = handlers_[handler](tok, std::span<const std::byte>(p), arg0, arg1);
  });
  engine_.schedule(rt.complete,
                   [this, f, rt] { engine_.resume(*f, rt.complete); });
  engine_.block();
  return *reply;
}

void World::barrier() {
  // The Domain's dissemination rounds and flags, with each notify sent as
  // an active message rather than a put.
  const int me = mynode();
  const int n = nodes();
  if (n == 1) return;
  const std::int64_t gen = domain_->next_barrier_gen();
  std::uint64_t flag_off = 0;
  for (int dist = 1; dist < n; dist <<= 1) {
    am_request((me + dist) % n, barrier_handler_, flag_off,
               static_cast<std::uint64_t>(gen));
    block_until(flag_off, fabric::Cmp::kGe, gen);
    flag_off += sizeof(std::int64_t);
  }
}

}  // namespace gasnet
