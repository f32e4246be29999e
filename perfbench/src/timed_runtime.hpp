// TimedRuntime: a caf::Runtime wrapper that apps::dht::Table can be
// instantiated over (the table is a template on its runtime), timing each
// lock / unlock / get / put on both clocks.
//
// Simulated time per call is read from the calling image's own clock, so it
// is exact even when thousands of images interleave. Host time per call is
// only meaningful when no other image runs while the call is blocked, which
// is why the host figures come from a run with one updating image (see
// probes.cpp).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "caf/runtime.hpp"
#include "sim/engine.hpp"

namespace perfbench {

enum class CafCall { kLock = 0, kUnlock, kGet, kPut, kCount };

inline const char* caf_call_name(CafCall c) {
  switch (c) {
    case CafCall::kLock: return "lock";
    case CafCall::kUnlock: return "unlock";
    case CafCall::kGet: return "get";
    case CafCall::kPut: return "put";
    case CafCall::kCount: break;
  }
  return "?";
}

struct CallTotals {
  std::uint64_t calls = 0;
  std::int64_t sim_ns = 0;
  std::int64_t host_ns = 0;
};

using CallLedger =
    std::array<CallTotals, static_cast<std::size_t>(CafCall::kCount)>;

class TimedRuntime {
 public:
  TimedRuntime(caf::Runtime& rt, CallLedger& ledger)
      : rt_(rt), ledger_(ledger) {}

  int this_image() const { return rt_.this_image(); }
  int num_images() const { return rt_.num_images(); }

  void lock(caf::CoLock lck, int image) {
    Timer t(*this, CafCall::kLock);
    rt_.lock(lck, image);
  }
  void unlock(caf::CoLock lck, int image) {
    Timer t(*this, CafCall::kUnlock);
    rt_.unlock(lck, image);
  }
  void get_bytes(void* dst, int image, std::uint64_t off, std::size_t n) {
    Timer t(*this, CafCall::kGet);
    rt_.get_bytes(dst, image, off, n);
  }
  void put_bytes(int image, std::uint64_t off, const void* src,
                 std::size_t n) {
    Timer t(*this, CafCall::kPut);
    rt_.put_bytes(image, off, src, n);
  }

 private:
  class Timer {
   public:
    Timer(TimedRuntime& rt, CafCall call)
        : totals_(rt.ledger_[static_cast<std::size_t>(call)]),
          sim0_(sim::Engine::current()->now()),
          host0_(std::chrono::steady_clock::now()) {}
    ~Timer() {
      ++totals_.calls;
      totals_.sim_ns += sim::Engine::current()->now() - sim0_;
      totals_.host_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - host0_)
                             .count();
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    CallTotals& totals_;
    sim::Time sim0_;
    std::chrono::steady_clock::time_point host0_;
  };

  caf::Runtime& rt_;
  CallLedger& ledger_;
};

}  // namespace perfbench
