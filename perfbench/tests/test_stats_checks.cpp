// Unit tests of the benchmark's order statistics and output checks.
// Plain executable: prints each failure and exits non-zero if any.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "checks.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                \
    }                                                              \
  } while (0)

using perfbench::percentile_sorted;
using perfbench::samples_beyond;

std::vector<std::int64_t> one_to(std::int64_t n) {
  std::vector<std::int64_t> v;
  for (std::int64_t i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentiles() {
  const auto v = one_to(100);
  EXPECT(percentile_sorted(v, 50.0) == 50);
  EXPECT(percentile_sorted(v, 99.0) == 99);
  EXPECT(percentile_sorted(v, 100.0) == 100);
  EXPECT(percentile_sorted({7}, 99.0) == 7);
  EXPECT(percentile_sorted({}, 50.0) == 0);
  EXPECT(samples_beyond(100, 99.0) == 1);
  EXPECT(samples_beyond(1000, 99.0) == 10);
  EXPECT(samples_beyond(999, 99.0) == 9);
}

void test_tail_needs_ten_beyond() {
  // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
  auto t = perfbench::tail(one_to(1000));
  EXPECT(t.pct == 99.0);
  EXPECT(t.value == 990);
  // 999 samples: p99 has 9 beyond, so the tail falls back to p90.
  t = perfbench::tail(one_to(999));
  EXPECT(t.pct == 90.0);
  EXPECT(t.value == 900);
  // 10000 samples reach p99.9; 100000 reach p99.99.
  EXPECT(perfbench::tail(one_to(10'000)).pct == 99.9);
  EXPECT(perfbench::tail(one_to(100'000)).pct == 99.99);
  // Fewer than 20 samples: not even the median has ten beyond it.
  EXPECT(perfbench::tail(one_to(19)).pct == 0.0);
  EXPECT(perfbench::tail(one_to(20)).pct == 50.0);
}

void test_summarize_sorts_and_flags_p99() {
  std::vector<std::int64_t> v;
  for (std::int64_t i = 2000; i >= 1; --i) v.push_back(i);  // descending
  const auto s = perfbench::summarize(v);
  EXPECT(s.n == 2000);
  EXPECT(s.p50 == 1000);
  EXPECT(s.p99 == 1980);
  EXPECT(s.p99_supported);
  EXPECT(!perfbench::summarize(one_to(500)).p99_supported);
}

void test_digest() {
  perfbench::Digest a, b, c;
  a.add(1);
  a.add_double(0.5);
  b.add(1);
  b.add_double(0.5);
  c.add_double(0.5);
  c.add(1);
  EXPECT(a.value() == b.value());
  EXPECT(a.value() != c.value());  // order matters
  EXPECT(a.hex().size() == 16);
}

void test_residual_check() {
  // Same terms, different summation order: passes.
  EXPECT(perfbench::residual_matches(2.03425294e-4 * (1 + 1e-13), 2.03425294e-4));
  // The 16384-image Himeno residual against its single-image reference
  // (halo race between the sweep and the exchange): must fail.
  EXPECT(!perfbench::residual_matches(2.07099147e-4, 2.03425294e-4));
  // The 2048-image fig10 point is off by only 0.3%, still a failure.
  EXPECT(!perfbench::residual_matches(3.30533e-3, 3.29545e-3));
}

void test_serve_audit() {
  EXPECT(perfbench::lost_acked(5, true, 5) == 0);
  EXPECT(perfbench::lost_acked(5, true, 7) == 0);  // retried increments
  EXPECT(perfbench::lost_acked(5, true, 3) == 2);
  EXPECT(perfbench::lost_acked(5, false, 0) == 5);
}

void test_dht_sum() {
  EXPECT(perfbench::dht_update_mismatch(262144, 262144) == 0);
  EXPECT(perfbench::dht_update_mismatch(262140, 262144) == 4);
  EXPECT(perfbench::dht_update_mismatch(262145, 262144) == 1);
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_needs_ten_beyond();
  test_summarize_sorts_and_flags_p99();
  test_digest();
  test_residual_check();
  test_serve_audit();
  test_dht_sum();
  if (g_failures != 0) {
    std::printf("%d failures\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests OK\n");
  return 0;
}
