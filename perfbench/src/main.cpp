// perfbench_bin: runs one workload or one probe arm in this process and
// prints one JSON line with everything measured. run.py drives it, one
// process per run, and aggregates.
//
//   perfbench_bin run <workload> --seed N [--trace] [--put-p99-limit-us X]
//   perfbench_bin probe <probe> --seed N
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Metric;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metric_map(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + number(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

/// Fixed integer work timed per iteration: the same on every commit, so a
/// shift in it between two sets of runs is host drift, not a code change.
double calibration_ns() {
  constexpr int kIters = 1 << 22;
  std::vector<double> per_iter;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(rep);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    volatile std::uint64_t sink = x;
    (void)sink;
    per_iter.push_back(ns / kIters);
  }
  std::sort(per_iter.begin(), per_iter.end());
  return per_iter[1];
}

std::string process_json(double calib_ns) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
                       static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  return std::string("{\"peak_rss_mib\": ") +
         number(static_cast<double>(ru.ru_maxrss) / 1024.0) +
         ", \"sys_s\": " + number(sys_s) +
         ", \"minor_faults\": " + number(static_cast<double>(ru.ru_minflt)) +
         ", \"calib_ns\": " + number(calib_ns) + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin run <workload> --seed N [--trace] "
               "[--put-p99-limit-us X]\n"
               "       perfbench_bin probe <probe> --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  const std::string name = argv[2];
  perfbench::RunOptions opts;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace") {
      opts.traced = true;
    } else if (a == "--seed" && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--put-p99-limit-us" && i + 1 < argc) {
      opts.put_p99_limit_us = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }
  const double calib = calibration_ns();
  try {
    if (mode == "probe") {
      const auto metrics = perfbench::run_probe(name, opts.seed);
      std::printf("{\"probe\": %s, \"seed\": %llu, \"layer\": %s, "
                  "\"process\": %s}\n",
                  quoted(name).c_str(),
                  static_cast<unsigned long long>(opts.seed),
                  metric_map(metrics).c_str(), process_json(calib).c_str());
      return 0;
    }
    if (mode != "run") return usage();
    const perfbench::RunReport r = perfbench::run_workload(name, opts);
    std::string checks = "[";
    for (std::size_t i = 0; i < r.checks.size(); ++i) {
      if (i > 0) checks += ", ";
      checks += "{\"name\": " + quoted(r.checks[i].name) +
                ", \"ok\": " + (r.checks[i].ok ? "true" : "false") +
                ", \"detail\": " + quoted(r.checks[i].detail) + "}";
    }
    checks += "]";
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, "
        "\"setup_s\": %s, \"run_s\": %s, \"events\": %llu, "
        "\"attempted\": %lld, "
        "\"failed\": %lld, \"checks\": %s, \"digest\": \"%s\", "
        "\"sim\": %s, \"layer\": %s, \"process\": %s}\n",
        quoted(name).c_str(), static_cast<unsigned long long>(opts.seed),
        opts.traced ? "true" : "false", number(r.setup_s).c_str(),
        number(r.run_s).c_str(), static_cast<unsigned long long>(r.events),
        static_cast<long long>(r.attempted),
        static_cast<long long>(r.failed), checks.c_str(),
        r.digest.hex().c_str(), metric_map(r.sim).c_str(),
        metric_map(r.layer).c_str(), process_json(calib).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_bin: %s\n", e.what());
    return 1;
  }
}
