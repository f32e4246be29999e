// gasnet::World — a GASNet-core-like conduit.
//
// GASNet is the baseline communication layer UHCAF used before this paper's
// OpenSHMEM port (Table I: UHCAF runs over GASNet or ARMCI), and the
// comparator in Figures 2-3 and 6-10. The surface implemented here follows
// the GASNet core + extended API style:
//
//   * gasnet_put / put_bulk   — blocking until *remote* completion;
//   * put_nbi                 — non-blocking implicit; source reusable on
//                               return; completed by wait_syncnbi_puts();
//   * gasnet_get              — blocking read;
//   * active messages         — short/medium requests dispatched to a
//                               registered handler on the target "CPU", with
//                               an optional 64-bit reply.
//
// Crucially for the paper's analysis, GASNet has *no remote atomics*: the
// CAF runtime must emulate them with AM round-trips that serialize on the
// target CPU (see Fabric::submit_am). This is what makes locks over GASNet
// slower than over SHMEM in Figure 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fabric/domain.hpp"
#include "net/profiles.hpp"

namespace gasnet {

class World;

/// Handler context: identifies the requesting node and carries the virtual
/// time at which the handler runs (needed to timestamp memory mutations).
struct Token {
  World& world;
  int src_node;  ///< requester
  int dst_node;  ///< node the handler is executing on
  sim::Time when;
};

/// An AM handler receives the token, an optional medium payload, and two
/// 64-bit arguments; its return value is delivered to a requester waiting on
/// am_request_reply (ignored for plain am_request).
using Handler = std::function<std::uint64_t(
    const Token&, std::span<const std::byte> payload, std::uint64_t arg0,
    std::uint64_t arg1)>;

class World {
 public:
  World(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
        std::size_t seg_bytes);
  ~World();

  void launch(std::function<void()> node_main);

  int mynode() const;
  int nodes() const { return domain_->npes(); }
  sim::Engine& engine() { return engine_; }
  fabric::Domain& domain() { return *domain_; }

  /// Attached segment base for `node` (GASNet segment-everything style:
  /// offsets are symmetric across nodes).
  std::byte* seg(int node) { return domain_->segment(node); }
  std::size_t seg_bytes() const { return domain_->segment_bytes(); }

  // ---- extended API: one-sided memory ----
  /// Blocking put: returns only when the data is in remote memory.
  void put(int node, std::uint64_t dst_off, const void* src, std::size_t n);
  /// Non-blocking implicit put: local completion only.
  void put_nbi(int node, std::uint64_t dst_off, const void* src,
               std::size_t n);
  /// Access-region write combining: many small updates shipped as ONE
  /// pipelined message (the GASNet VIS / access-region idiom), scattered at
  /// the target per `recs`. Completes with wait_syncnbi_puts().
  void put_scatter_nbi(int node, const fabric::ScatterRec* recs,
                       std::size_t nrecs, const void* payload,
                       std::size_t payload_bytes);
  /// Blocking get.
  void get(void* dst, int node, std::uint64_t src_off, std::size_t n);
  /// Completes all outstanding nbi puts from this node.
  void wait_syncnbi_puts();

  // ---- core API: active messages ----
  /// Registers `fn` and returns its handler index.
  int register_handler(Handler fn);
  /// Fire-and-forget AM request (short or medium, depending on payload).
  void am_request(int node, int handler, std::uint64_t arg0,
                  std::uint64_t arg1, const void* payload = nullptr,
                  std::size_t payload_bytes = 0);
  /// AM request that blocks for the handler's 64-bit reply. This is the
  /// primitive CAF-over-GASNet uses to emulate remote atomics.
  std::uint64_t am_request_reply(int node, int handler, std::uint64_t arg0,
                                 std::uint64_t arg1,
                                 const void* payload = nullptr,
                                 std::size_t payload_bytes = 0);

  /// Barrier (gasnet_barrier_notify/wait rolled into one): dissemination
  /// over AM notifies + local spinning, on the Domain's barrier flags at
  /// [0, fabric::kBarrierBytes) of the segment.
  void barrier();

  /// Blocks the calling fiber until the int64 at `off` in the local segment
  /// satisfies `cmp`/`value` (used by layered runtimes to spin on
  /// AM-written flags). Equivalent to GASNET_BLOCKUNTIL.
  void block_until(std::uint64_t off, fabric::Cmp cmp, std::int64_t value) {
    domain_->wait_until(off, cmp, value, "gasnet_block_until");
  }

 private:
  sim::Engine& engine_;
  std::unique_ptr<fabric::Domain> domain_;
  std::vector<Handler> handlers_;
  int barrier_handler_ = -1;
};

}  // namespace gasnet
