// Order statistics and digests used by the benchmark's reports.
//
// Medians and quartiles across runs are taken in run.py; this header covers
// the per-run latency samples. tail() picks the highest percentile of a
// fixed ladder that still has at least ten samples beyond it: a p99 from
// 300 samples would be the third-largest value, not a percentile.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the p-th percentile (p in (0, 100]) among n
/// samples. The epsilon keeps 99.9% of 10000 at rank 9990: in binary
/// floating point 0.999 * 10000 lands just above 9990.
inline std::int64_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::max<std::int64_t>(static_cast<std::int64_t>(rank), 1);
}

/// Nearest-rank percentile of an ascending-sorted sample.
inline std::int64_t percentile_sorted(const std::vector<std::int64_t>& sorted,
                                      double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(nearest_rank(sorted.size(), p)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Number of samples strictly beyond the nearest-rank p-th percentile.
inline std::int64_t samples_beyond(std::size_t n, double p) {
  return static_cast<std::int64_t>(n) - nearest_rank(n, p);
}

struct Tail {
  double pct = 0;          ///< 0 when fewer than 10 samples exist at all
  std::int64_t value = 0;
};

/// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
/// beyond it.
inline Tail tail(const std::vector<std::int64_t>& sorted) {
  Tail t;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(sorted.size(), p) < 10) break;
    t.pct = p;
    t.value = percentile_sorted(sorted, p);
  }
  return t;
}

/// A latency distribution in simulated ns: p50, p99 and the tail pick.
struct LatencySummary {
  std::size_t n = 0;
  std::int64_t p50 = 0;
  std::int64_t p99 = 0;
  bool p99_supported = false;  ///< at least ten samples beyond p99
  Tail tail;
};

inline LatencySummary summarize(std::vector<std::int64_t> v) {
  std::sort(v.begin(), v.end());
  LatencySummary s;
  s.n = v.size();
  s.p50 = percentile_sorted(v, 50.0);
  s.p99 = percentile_sorted(v, 99.0);
  s.p99_supported = samples_beyond(v.size(), 99.0) >= 10;
  s.tail = tail(v);
  return s;
}

/// FNV-1a over 64-bit words: the digest of a run's simulated outputs.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof d);
    add(bits);
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    static const char* kHex = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 0; i < 16; ++i) {
      s[static_cast<std::size_t>(15 - i)] = kHex[(h_ >> (4 * i)) & 0xf];
    }
    return s;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace perfbench
