// caf::NodeHeap — the CAF-layer view of the per-node shared symmetric heap.
//
// When the node-local transport (net::NodeChannel, enabled through
// caf::Options::node) is active, every image's symmetric segment is mapped
// into one shared region per node. This facade exposes that capability to
// CAF-level code uniformly across conduits:
//
//   * resolve(image, off) — a direct load/store pointer into a same-node
//     image's segment (the shmem_ptr idiom of §VII, but available on every
//     conduit with a fabric::Domain, not just OpenSHMEM);
//   * NUMA topology queries — which domain an image's cores and heap slice
//     live in, whether an access crosses the socket link;
//   * per-node stats for tests and the intranode ablation bench.
//
// A NodeHeap is cheap to construct (two pointers); Runtime::node_heap()
// hands one out on demand. All image indices are 1-based, like the rest of
// the caf:: surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "caf/conduit.hpp"

namespace caf {

/// Shape of the calling image's node under the transport.
struct NodeHeapStats {
  int node = 0;                        ///< node id of the calling image
  int images_on_node = 0;              ///< co-located images (incl. caller)
  int numa_domains = 1;
  std::vector<int> images_per_domain;  ///< CPU-domain occupancy on this node
  std::uint64_t ring_pushes = 0;       ///< machine-wide ring traffic so far
  std::uint64_t ring_stalls = 0;       ///< pushes that hit backpressure
  std::uint64_t ring_wraps = 0;        ///< full ring revolutions
};

class NodeHeap {
 public:
  explicit NodeHeap(Conduit& conduit);

  /// True when the node-local transport is active on this conduit.
  bool enabled() const { return channel_ != nullptr; }

  int node_of(int image) const;
  bool same_node(int image_a, int image_b) const;
  /// CPU NUMA domain of `image`'s core.
  int cpu_domain(int image) const;
  /// NUMA domain holding `image`'s slice of the node-shared heap.
  int segment_domain(int image) const;
  /// True when the calling image reads/writes `image`'s slice without
  /// crossing the socket link.
  bool numa_local(int image) const;

  /// Direct pointer to symmetric offset `off` in `image`'s segment, or
  /// nullptr when the transport is off or `image` is on another node.
  /// Must be called from an image fiber (uses the calling rank).
  std::byte* resolve(int image, std::uint64_t off);

  /// Simulated cost for the calling image to memcpy `n` bytes into/out of
  /// `image`'s slice (NUMA-aware; mirrors what the transport charges).
  sim::Time copy_cost(int image, std::size_t n) const;

  NodeHeapStats stats() const;

 private:
  int my_rank() const { return conduit_.rank(); }

  Conduit& conduit_;
  fabric::Domain* domain_;
  net::NodeChannel* channel_;       ///< null when the transport is off
};

}  // namespace caf
