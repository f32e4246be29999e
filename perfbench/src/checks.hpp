// Output checks shared by the workloads and their unit tests.
#pragma once

#include <cmath>
#include <cstdint>

namespace perfbench {

/// A parallel residual is a different summation order of the same terms as
/// the single-image one, so it may differ in the last bits only; a wrong
/// halo (a race, a missed exchange) moves it by orders of magnitude more.
inline constexpr double kResidualRelTolerance = 1e-9;

inline double relative_error(double value, double reference) {
  return std::abs(value - reference) / std::abs(reference);
}

inline bool residual_matches(double value, double reference) {
  return relative_error(value, reference) <= kResidualRelTolerance;
}

/// Acknowledged increments of one key that the store does not hold: an
/// unreadable key loses every ack; a readable one loses the shortfall (a
/// count above the acks is the documented at-least-once retry window).
inline std::int64_t lost_acked(std::int64_t acked, bool readable,
                               std::int64_t stored) {
  if (!readable) return acked;
  return stored < acked ? acked - stored : 0;
}

/// Updates missing from (or extra in) a table whose counts must sum to
/// images × updates per image.
inline std::int64_t dht_update_mismatch(std::int64_t table_sum,
                                        std::int64_t expected) {
  return table_sum > expected ? table_sum - expected : expected - table_sum;
}

}  // namespace perfbench
