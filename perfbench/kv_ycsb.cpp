// kv_ycsb_a: kv::run_ycsb, YCSB mix A, sized so that the schemes separate
// (at 10k keys the metadata cache holds the whole tree and STAR == WB).
#include <stdexcept>

#include "bench.hpp"
#include "kv/ycsb.hpp"

namespace perfbench {

using namespace steins;

namespace {

constexpr std::size_t kMetadataCacheBytes = 32 * 1024;

kv::YcsbConfig ycsb_config(const Options& opt, std::uint64_t ops) {
  kv::YcsbConfig y;
  y.mix = kv::Mix::kA;
  y.keys = 200'000;
  y.slots = std::size_t{1} << 19;
  y.clients = 4;
  y.controllers = 2;
  y.jobs = opt.kv_jobs;
  y.seed = opt.seed;
  y.ops = ops;
  return y;
}

}  // namespace

Outcome run_kv_ycsb(const Options& opt) {
  constexpr std::uint64_t kOps = 200'000;
  SystemConfig cfg = default_config();
  cfg.secure.metadata_cache.size_bytes = kMetadataCacheBytes;
  const std::vector<SchemeSpec> variants = gc_comparison_schemes();

  Outcome out;
  Metrics first_sim;
  std::vector<double> ops_rate, measured_rate, call_ms, preload_unit_s;
  Samples setup, run_s;

  run_units(opt, 1, [&](unsigned unit) {
    Metrics sim;
    std::map<std::string, kv::YcsbResult> res;
    double full_s = 0, measured_s = 0, preload_s = 0;
    for (const SchemeSpec& v : variants) {
      // The preload alone (ops = 0) is the set-up. Host throughput counts
      // every KV op of the full call (preload inserts + measured ops): the
      // measured ops' own time is the difference of two calls of about a
      // second each, which host noise swamps, so it is only a per-layer
      // figure (kv.measured_ops_per_s).
      kv::YcsbResult preload, full;
      out.attempted += 2 * ycsb_config(opt, 0).keys + kOps;
      auto t0 = Clock::now();
      try {
        preload = kv::run_ycsb(cfg, v.scheme, ycsb_config(opt, 0));
      } catch (const std::exception& e) {
        out.fail_op(v.label + " preload: " + e.what());
      }
      const double p_s = seconds_since(t0);
      t0 = Clock::now();
      try {
        full = kv::run_ycsb(cfg, v.scheme, ycsb_config(opt, kOps));
      } catch (const std::exception& e) {
        out.fail_op(v.label + ": " + e.what());
      }
      const double f_s = seconds_since(t0);
      setup[v.label].push_back(p_s);
      preload_s += p_s;
      full_s += f_s;
      measured_s += f_s - p_s;
      call_ms.push_back(f_s * 1e3);
      run_s[v.label].push_back(f_s);
      res[v.label] = full;

      const std::string& l = v.label;
      const double ns_per_cycle = 1.0 / cfg.cpu.freq_ghz;
      sim["sim.cycles." + l] = static_cast<double>(full.makespan);
      sim["kv.sim_kops_s." + l] = full.kops_per_sec;
      sim["kv.read_p99_ns." + l] = full.read_lat.percentile(99) * ns_per_cycle;
      sim["kv.update_p99_ns." + l] = full.update_lat.percentile(99) * ns_per_cycle;
      sim["kv.nvm_writes_per_update." + l] =
          static_cast<double>(full.nvm_writes - preload.nvm_writes) /
          static_cast<double>(full.updates);
    }
    const kv::YcsbResult& steins = res.at("Steins-GC");
    const kv::YcsbResult& wb = res.at("WB-GC");
    sim["sim_steins_s"] = steins.seconds;
    sim["sim_steins_norm"] = steins.seconds / wb.seconds;
    sim["sim_nvm_writes_norm"] =
        static_cast<double>(steins.nvm_writes) / static_cast<double>(wb.nvm_writes);
    check_repeat(out, first_sim, sim, unit);
    const double keys = static_cast<double>(ycsb_config(opt, 0).keys);
    ops_rate.push_back((keys + kOps) * static_cast<double>(variants.size()) / full_s);
    measured_rate.push_back(static_cast<double>(kOps * variants.size()) / measured_s);
    preload_unit_s.push_back(preload_s);
  });

  out.publish_sim(first_sim);
  out.end_to_end["setup_s"] = mean_percentile(setup, 50);
  out.end_to_end["host_ops_per_s"] = median(ops_rate);
  // One call per scheme per unit: too few for a percentile per scheme.
  out.end_to_end["host_call_ms_p90"] = percentile(call_ms, 90);

  for (const auto& [label, v] : run_s) out.per_layer["kv.run_ycsb_s." + label] = median(v);
  out.per_layer["kv.preload_s"] = median(preload_unit_s);
  out.per_layer["kv.measured_ops_per_s"] = median(measured_rate);
  // run_ycsb is timed only as a whole, in both modes: no spans to add.
  out.per_layer["bench.trace_overhead_frac"] = 0.0;
  return out;
}

}  // namespace perfbench
