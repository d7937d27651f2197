// Shared types of the benchmark driver (see README.md in this directory).
//
// Each workload runs "units": one unit is the workload's complete work for
// every scheme variant it compares, on inputs derived only from the seed.
// Units repeat until the time budget is spent; host metrics are medians
// over units, simulated metrics come from one unit and every later unit
// must reproduce them bit for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned kv_jobs = 1;
  /// Run exactly this many units instead of filling the time budget
  /// (self-tests); 0 = time-bounded.
  unsigned units = 0;
};

using Metrics = std::map<std::string, double>;
/// Host-time samples per scheme variant.
using Samples = std::map<std::string, std::vector<double>>;

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a check other than a failed op fired: units disagreeing,
  /// the traced driver diverging from System::run.
  bool consistent = true;
  std::vector<std::string> errors;
  Metrics end_to_end;  // host + simulated, reported with --trace 0
  Metrics per_layer;   // host + simulated, reported with --trace 1
  Metrics sim;         // every simulated value (self-tests compare these)

  void fail_op(const std::string& why);
  void inconsistent(const std::string& why);
  /// Publishes the first unit's simulated results: names with a layer
  /// prefix ("secure.meta_reads.ASIT") are per-layer, the rest end-to-end.
  void publish_sim(const Metrics& first_unit);
};

/// Drives units until the budget is spent: at least `min_units`, and a
/// further unit only while the slowest unit so far still fits. `unit(i)`
/// runs unit i.
void run_units(const Options& opt, unsigned min_units, const std::function<void(unsigned)>& unit);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100]; the 50th of an even count is
/// the mean of the middle two.
double percentile(std::vector<double> v, double p);

/// Mean over variants of each variant's p-th percentile. Variants differ
/// in cost by up to 10x, so a percentile of the pooled samples can fall in
/// the gap between two variants and jump between runs.
double mean_percentile(const Samples& s, double p);

/// Records `m` as unit i's simulated results: unit 0 defines them, every
/// later unit must match exactly.
void check_repeat(Outcome& out, Metrics& first, const Metrics& m, unsigned unit);

Outcome run_system_workload(const Options& opt);  // spec_mcf, persist_hash
Outcome run_crash_recover(const Options& opt);
Outcome run_kv_ycsb(const Options& opt);

}  // namespace perfbench
