// steins_perfbench: runs one benchmark workload and prints one JSON line
// with its metrics, simulated results and the host/build fingerprint.
// perfbench/run.py builds this program and turns the line into the
// benchmark's report.
//
//   steins_perfbench --workload W --seed N --seconds S [--trace 0|1]
//                    [--kv-jobs J] [--units U]
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/stats.hpp"
#include "crypto/backend.hpp"

namespace perfbench {

void Outcome::fail_op(const std::string& why) {
  ++failed;
  if (errors.size() < 16) errors.push_back(why);
}

void Outcome::inconsistent(const std::string& why) {
  consistent = false;
  if (errors.size() < 16) errors.push_back(why);
}

void Outcome::publish_sim(const Metrics& first_unit) {
  sim = first_unit;
  for (const auto& [name, value] : first_unit) {
    (name.find('.') != std::string::npos ? per_layer : end_to_end)[name] = value;
  }
}

void run_units(const Options& opt, unsigned min_units, const std::function<void(unsigned)>& unit) {
  const auto t0 = Clock::now();
  double slowest = 0;
  for (unsigned i = 0;; ++i) {
    if (opt.units != 0 ? i >= opt.units
                       : i >= min_units && seconds_since(t0) + slowest > opt.seconds) {
      break;
    }
    const auto u0 = Clock::now();
    unit(i);
    slowest = std::max(slowest, seconds_since(u0));
  }
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (p == 50 && v.size() % 2 == 0) return (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean_percentile(const Samples& s, double p) {
  double sum = 0;
  for (const auto& [label, v] : s) sum += percentile(v, p);
  return s.empty() ? 0.0 : sum / static_cast<double>(s.size());
}

void check_repeat(Outcome& out, Metrics& first, const Metrics& m, unsigned unit) {
  if (unit == 0) {
    first = m;
  } else if (m != first) {
    out.inconsistent("unit " + std::to_string(unit) + " simulated results differ from unit 0");
  }
}

}  // namespace perfbench

namespace {

using perfbench::Metrics;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "steins_perfbench: %s\nusage: steins_perfbench --workload "
               "spec_mcf|persist_hash|crash_recover|kv_ycsb_a --seed N --seconds S "
               "[--trace 0|1] [--kv-jobs J] [--units U]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || *end != '\0') usage(flag + " needs a whole number");
  return v;
}

std::string json_string(const std::string& s) {
  std::string out(1, '"');
  out += steins::json_escape(s);
  out += '"';
  return out;
}

std::string json_object(const Metrics& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (s.size() > 1) s += ", ";
    s += json_string(k);
    s += ": ";
    s += std::isfinite(v) ? num : "null";
  }
  return s + "}";
}


}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = parse_uint(flag, val);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_uint(flag, val));
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, val);
      if (t > 1) usage("--trace is 0 or 1");
      opt.trace = t == 1;
    } else if (flag == "--kv-jobs") {
      opt.kv_jobs = static_cast<unsigned>(parse_uint(flag, val));
      if (opt.kv_jobs == 0) usage("--kv-jobs must be at least 1");
    } else if (flag == "--units") {
      opt.units = static_cast<unsigned>(parse_uint(flag, val));
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) usage("--workload, --seed and --seconds are required");

  // Keep freed memory in the heap instead of returning it to the kernel:
  // with glibc's adaptive thresholds, whether a unit's tables come back as
  // recycled or as freshly faulted pages depends on earlier frees, and the
  // set-up time of one run can differ from the next by 8x.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  perfbench::Outcome out;
  if (opt.workload == "spec_mcf" || opt.workload == "persist_hash") {
    out = perfbench::run_system_workload(opt);
  } else if (opt.workload == "crash_recover") {
    out = perfbench::run_crash_recover(opt);
  } else if (opt.workload == "kv_ycsb_a") {
    out = perfbench::run_kv_ycsb(opt);
  } else {
    usage("unknown workload " + opt.workload);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.end_to_end["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  out.end_to_end["ok_ops_frac"] =
      static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted);

  namespace c = steins::crypto;
  std::string errors = "[";
  for (const std::string& e : out.errors) errors += (errors.size() > 1 ? ", " : "") + json_string(e);
  errors += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"attempted\": %llu, \"failed\": %llu, "
      "\"consistent\": %s, \"errors\": %s, \"end_to_end\": %s, \"per_layer\": %s, \"sim\": %s, "
      "\"fingerprint\": {\"compiler\": %s, \"build_type\": %s, \"cxx_flags\": %s, "
      "\"crypto_backend\": %s, \"cpu_aesni\": %s, \"cpu_shani\": %s, \"nproc\": %u}}\n",
      json_string(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), out.consistent ? "true" : "false",
      errors.c_str(), json_object(out.end_to_end).c_str(), json_object(out.per_layer).c_str(),
      json_object(out.sim).c_str(), json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(PERFBENCH_CXX_FLAGS).c_str(),
      json_string(c::backend_name(c::active_backend())).c_str(),
      c::cpu_has_aesni() ? "true" : "false", c::cpu_has_shani() ? "true" : "false",
      std::thread::hardware_concurrency());
  return 0;
}
