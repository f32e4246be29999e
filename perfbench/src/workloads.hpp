// The benchmark's workloads and probe arms. Each entry point runs one
// simulation (or one probe) in the calling process and returns everything
// the report needs; main.cpp serialises it as one JSON line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/dht.hpp"
#include "stats.hpp"

namespace perfbench {

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One output check: its name, verdict and what was compared.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RunReport {
  double setup_s = 0;  ///< Stack construction → last image done with setup
  double run_s = 0;    ///< that point → engine drained
  std::uint64_t events = 0;  ///< simulated events over the timed phases
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Check> checks;
  /// Simulated end-to-end results under their documented names. Withheld
  /// (left empty) when an output check fails: a number from a wrong answer
  /// measures a different program.
  std::vector<Metric> sim;
  /// Per-layer metrics read from the run itself (filled when traced).
  std::vector<Metric> layer;
  Digest digest;  ///< every simulated output of the run
};

struct RunOptions {
  std::uint64_t seed = 1;
  bool traced = false;            ///< obs spans/rings on for this run
  double put_p99_limit_us = 0;    ///< serve_zipf_kill's rate-ladder limit
};

/// Runs `name`; throws std::invalid_argument for an unknown name.
RunReport run_workload(const std::string& name, const RunOptions& opts);

/// dht_lock_1k's table: Figure 9's configuration at 256 updates per image.
apps::dht::Config dht_lock_1k_config(std::uint64_t seed);

/// The failure-detector metrics of serve_zipf_kill's nominal rate, for the
/// traced runs of workloads that run no detector of their own.
std::vector<Metric> serve_detector_probe(std::uint64_t seed);

/// Probe arms (probes.cpp): per-layer host/simulated costs measured at the
/// workloads' scales, independent of which workload is being traced. Throws
/// std::invalid_argument for an unknown name.
std::vector<Metric> run_probe(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
