#include "caf/node_heap.hpp"

namespace caf {

NodeHeap::NodeHeap(Conduit& conduit)
    : conduit_(conduit),
      domain_(conduit.rma_domain()),
      channel_(domain_->node_transport()) {}

int NodeHeap::node_of(int image) const {
  return domain_->fabric().node_of(image - 1);
}

bool NodeHeap::same_node(int image_a, int image_b) const {
  return domain_->fabric().same_node(image_a - 1, image_b - 1);
}

int NodeHeap::cpu_domain(int image) const {
  return enabled() ? channel_->domain_of(image - 1) : 0;
}

int NodeHeap::segment_domain(int image) const {
  return enabled() ? channel_->segment_domain(image - 1) : 0;
}

bool NodeHeap::numa_local(int image) const {
  return !enabled() || channel_->numa_local(my_rank(), image - 1);
}

std::byte* NodeHeap::resolve(int image, std::uint64_t off) {
  if (!enabled()) return nullptr;
  const int target = image - 1;
  if (!domain_->fabric().same_node(my_rank(), target)) return nullptr;
  if (off >= domain_->segment_bytes()) return nullptr;
  return domain_->segment(target) + off;
}

sim::Time NodeHeap::copy_cost(int image, std::size_t n) const {
  if (!enabled()) return 0;
  return channel_->copy_cost(my_rank(), image - 1, n);
}

NodeHeapStats NodeHeap::stats() const {
  NodeHeapStats s;
  if (!enabled()) {
    s.images_on_node = 1;
    s.images_per_domain.assign(1, 1);
    return s;
  }
  const net::Fabric& fab = domain_->fabric();
  const int me = my_rank();
  s.node = fab.node_of(me);
  s.numa_domains = channel_->numa_domains();
  s.images_per_domain.assign(static_cast<std::size_t>(s.numa_domains), 0);
  for (int pe = 0; pe < fab.npes(); ++pe) {
    if (fab.node_of(pe) != s.node) continue;
    ++s.images_on_node;
    ++s.images_per_domain[static_cast<std::size_t>(channel_->domain_of(pe))];
  }
  s.ring_pushes = channel_->ring_pushes();
  s.ring_stalls = channel_->ring_stalls();
  s.ring_wraps = channel_->ring_wraps();
  return s;
}

}  // namespace caf
