#include "shmem/heap.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace shmem {

FreeListAllocator::FreeListAllocator(std::uint64_t base, std::uint64_t capacity,
                                     std::uint64_t alignment)
    : base_(base),
      capacity_(capacity),
      alignment_(alignment),
      high_water_(base) {
  assert((alignment & (alignment - 1)) == 0 && "alignment must be power of 2");
  assert(align_up(base) == base && "base must be aligned");
  if (capacity > 0) holes_[base] = capacity;
}

std::optional<std::uint64_t> FreeListAllocator::allocate(std::uint64_t bytes) {
  const std::uint64_t need = align_up(bytes == 0 ? alignment_ : bytes);
  for (auto it = holes_.begin(); it != holes_.end(); ++it) {
    if (it->second >= need) {
      const std::uint64_t off = it->first;
      const std::uint64_t remaining = it->second - need;
      holes_.erase(it);
      if (remaining > 0) holes_[off + need] = remaining;
      blocks_[off] = Block{need, std::clamp(high_water_, off, off + need)};
      high_water_ = std::max(high_water_, off + need);
      in_use_ += need;
      return off;
    }
  }
  return std::nullopt;
}

void FreeListAllocator::release(std::uint64_t offset) {
  auto it = blocks_.find(offset);
  if (it == blocks_.end()) {
    throw std::invalid_argument("FreeListAllocator::release: unknown block");
  }
  std::uint64_t off = offset;
  std::uint64_t size = it->second.size;
  blocks_.erase(it);
  in_use_ -= size;
  // Coalesce with the following hole.
  auto next = holes_.lower_bound(off);
  if (next != holes_.end() && off + size == next->first) {
    size += next->second;
    next = holes_.erase(next);
  }
  // Coalesce with the preceding hole.
  if (next != holes_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == off) {
      prev->second += size;
      return;
    }
  }
  holes_[off] = size;
}

FreeListAllocator::Span FreeListAllocator::fresh_span(
    std::uint64_t offset) const {
  auto it = blocks_.upper_bound(offset);
  if (it == blocks_.begin()) return {};
  --it;
  const std::uint64_t end = it->first + it->second.size;
  if (offset >= end) return {};
  return {it->second.fresh, end};
}

bool FreeListAllocator::check_invariants() const {
  std::uint64_t free_total = 0;
  std::uint64_t prev_end = base_;
  bool first = true;
  for (const auto& [off, size] : holes_) {
    if (size == 0) return false;
    if (!first && off <= prev_end) return false;  // overlap or not coalesced
    // Adjacent holes must have a live block between them (coalescing).
    if (!first && off == prev_end) return false;
    prev_end = off + size;
    free_total += size;
    first = false;
  }
  if (prev_end > base_ + capacity_) return false;
  return free_total + in_use_ == capacity_;
}

CollectiveAllocLog::CollectiveAllocLog(int nranks, std::uint64_t base,
                                       std::uint64_t capacity)
    : allocator_(base, capacity), cursor_(static_cast<std::size_t>(nranks)) {}

std::uint64_t CollectiveAllocLog::allocate(int rank, std::uint64_t bytes,
                                           const char* what) {
  std::size_t& cursor = cursor_[static_cast<std::size_t>(rank)];
  const std::size_t i = cursor;
  if (i == log_.size()) {
    const auto got = allocator_.allocate(bytes);
    log_.push_back({false, bytes, got ? *got : kFailed});
  }
  ++cursor;  // only once the op is in the log
  const Op& op = log_[i];
  if (op.is_free || op.arg != bytes) {
    throw std::logic_error(std::string(what) +
                           ": collective call mismatch across ranks "
                           "(differing sizes or an interleaved free)");
  }
  if (op.result == kFailed) {
    throw HeapExhaustedError(what, bytes, allocator_.bytes_in_use(),
                             allocator_.capacity());
  }
  return op.result;
}

void CollectiveAllocLog::clear(std::byte* segment, std::uint64_t offset,
                               std::size_t n) const {
  const FreeListAllocator::Span fresh = allocator_.fresh_span(offset);
  const std::uint64_t end = offset + n;
  // Within one block, only [offset, fresh.begin) can hold old data.
  const std::uint64_t stop =
      end <= fresh.end ? std::min(end, std::max(offset, fresh.begin)) : end;
  if (stop > offset) std::memset(segment + offset, 0, stop - offset);
}

void CollectiveAllocLog::release(int rank, std::uint64_t offset,
                                 const char* what) {
  std::size_t& cursor = cursor_[static_cast<std::size_t>(rank)];
  const std::size_t i = cursor;
  if (i == log_.size()) {
    allocator_.release(offset);  // throws on an unknown offset
    log_.push_back({true, offset, 0});
  }
  ++cursor;
  const Op& op = log_[i];
  if (!op.is_free || op.arg != offset) {
    throw std::logic_error(std::string(what) +
                           ": collective call mismatch across ranks");
  }
}

}  // namespace shmem
