// spec_mcf and persist_hash: a named trace through System::run for each
// scheme variant, plus the traced replay that splits host time by layer.
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "cache/cache_hierarchy.hpp"
#include "common/flat_map.hpp"
#include "common/status.hpp"
#include "sim/cpu_model.hpp"
#include "sim/system.hpp"
#include "trace/workloads.hpp"

namespace perfbench {

using namespace steins;

namespace {

// System::run is called once per slice so that every call is one host
// latency sample; warm-up and measured lengths are whole slices, so the
// statistics reset falls on a call boundary exactly as in a single run.
constexpr std::size_t kSlice = 8192;

struct SystemWorkload {
  const char* trace;
  std::vector<SchemeSpec> variants;
  std::size_t warmup_slices;
  std::size_t measured_slices;
};

SystemWorkload workload_for(const std::string& name) {
  if (name == "spec_mcf") {
    std::vector<SchemeSpec> six = gc_comparison_schemes();
    six.push_back({Scheme::kWriteBack, CounterMode::kSplit, "WB-SC"});
    six.push_back({Scheme::kSteins, CounterMode::kSplit, "Steins-SC"});
    return {"mcf", six, 3, 24};
  }
  // phash's 3 MB table is metadata-cache resident in split-counter mode, so
  // WB-SC and Steins-SC would run bit-identically; only the GC set differs.
  return {"phash", gc_comparison_schemes(), 6, 48};
}

/// Replays the accesses of one slice of a materialized trace.
class SpanTrace final : public TraceSource {
 public:
  SpanTrace(const MemAccess* begin, std::size_t n) : begin_(begin), n_(n) {}
  bool next(MemAccess* out) override {
    if (pos_ == n_) return false;
    *out = begin_[pos_++];
    return true;
  }
  std::size_t next_batch(MemAccess* out, std::size_t max) override {
    const std::size_t n = std::min(max, n_ - pos_);
    std::memcpy(out, begin_ + pos_, n * sizeof(MemAccess));
    pos_ += n;
    return n;
  }
  void reset() override { pos_ = 0; }

 private:
  const MemAccess* begin_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

std::vector<MemAccess> materialize(const char* trace, std::size_t n, std::uint64_t seed) {
  auto src = make_workload(trace, n, seed);
  std::vector<MemAccess> out(n);
  std::size_t got = 0;
  while (got < n) {
    const std::size_t k = src->next_batch(out.data() + got, n - got);
    if (k == 0) break;
    got += k;
  }
  if (got != n) throw std::runtime_error("trace ended early");
  return out;
}

std::uint64_t write_queue_stalls(SecureMemory& mem) {
  auto* base = dynamic_cast<SecureMemoryBase*>(&mem);
  return base != nullptr ? base->channel().stats().write_queue_stalls : 0;
}

/// Every simulated number of a run, for the traced-driver equivalence check.
Metrics flatten(const RunStats& s) {
  const ExecStats& m = s.mem;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {{"cycles", d(s.cycles)},
          {"instructions", d(s.instructions)},
          {"accesses", d(s.accesses)},
          {"data_reads", d(m.data_reads)},
          {"data_writes", d(m.data_writes)},
          {"meta_reads", d(m.meta_reads)},
          {"meta_writes", d(m.meta_writes)},
          {"aux_reads", d(m.aux_reads)},
          {"aux_writes", d(m.aux_writes)},
          {"aux_write_bytes", d(m.aux_write_bytes)},
          {"hash_ops", d(m.hash_ops)},
          {"aes_ops", d(m.aes_ops)},
          {"mcache_accesses", d(m.mcache_accesses)},
          {"reencryptions", d(m.reencryptions)},
          {"read_latency.count", d(m.read_latency.count)},
          {"read_latency.sum", d(m.read_latency.sum)},
          {"read_latency.max", d(m.read_latency.max)},
          {"write_latency.count", d(m.write_latency.count)},
          {"write_latency.sum", d(m.write_latency.sum)},
          {"write_latency.max", d(m.write_latency.max)},
          {"energy_nj", s.energy_nj},
          {"mcache_hit_rate", s.mcache_hit_rate}};
}

struct LayerTimes {
  double gen_s = 0, cache_s = 0, cache_prefetch_s = 0, read_s = 0, write_s = 0, hint_s = 0;
  double replay_s = 0;  // whole replay loop; minus the layers = System's own work
  LatencyHistogram read_ns;
};

/// System::step's composition rebuilt from public calls (CpuModel,
/// CacheHierarchy, SecureMemory) with a timer around each call into a
/// layer. It must reproduce System::run's statistics exactly; the caller
/// checks that before reporting any of its times.
class TracedSystem {
 public:
  TracedSystem(const SystemConfig& cfg, Scheme scheme)
      : cfg_(cfg), mem_(make_scheme(scheme, cfg)), caches_(cfg) {}

  void replay(const std::vector<MemAccess>& trace, std::size_t warmup, LayerTimes& t) {
    constexpr std::size_t kPrefetchAhead = 8;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (i + kPrefetchAhead < trace.size()) {
        const Addr ahead = trace[i + kPrefetchAhead].addr;
        truth_.prefetch(ahead & ~static_cast<Addr>(kBlockSize - 1));
        auto c0 = Clock::now();
        caches_.prefetch(ahead);
        t.cache_prefetch_s += seconds_since(c0);
        c0 = Clock::now();
        mem_->prefetch_hint(ahead);
        t.hint_s += seconds_since(c0);
      }
      step(trace[i], t);
      if (i + 1 == warmup) reset_stats();
    }
    t.replay_s += seconds_since(t0);
  }

  RunStats collect_stats() {
    RunStats s;
    s.cycles = cpu_.now() - epoch_cycles_;
    s.instructions = cpu_.instructions() - epoch_insts_;
    s.accesses = accesses_;
    s.mem = mem_->stats();
    s.energy_nj = s.mem.energy_nj(cfg_);
    s.read_latency_cycles = s.mem.read_latency.mean();
    s.write_latency_cycles = s.mem.write_latency.mean();
    s.mcache_hit_rate = mem_->metadata_cache_stats().hit_rate();
    return s;
  }

 private:
  void reset_stats() {
    mem_->stats().reset();
    epoch_cycles_ = cpu_.now();
    epoch_insts_ = cpu_.instructions();
    accesses_ = 0;
  }

  void mutate_truth(Addr addr) {
    Block& b = truth_.get_or_create(addr);
    ++store_seq_;
    std::memcpy(b.data(), &store_seq_, 8);
    std::memcpy(b.data() + 8, &addr, 8);
    const std::uint64_t mix = store_seq_ * 0x9e3779b97f4a7c15ULL ^ addr;
    std::memcpy(b.data() + 16, &mix, 8);
  }

  Cycle write(Addr wb, LayerTimes& t) {
    const Block* known = truth_.find(wb);
    const auto t0 = Clock::now();
    const Cycle done = mem_->write_block(wb, known != nullptr ? *known : zero_block(), cpu_.now());
    t.write_s += seconds_since(t0);
    return done;
  }

  void step(const MemAccess& access, LayerTimes& t) {
    cpu_.advance(access.gap);
    ++accesses_;
    const Addr addr = access.addr & ~static_cast<Addr>(kBlockSize - 1);
    if (access.is_write) mutate_truth(addr);

    auto t0 = Clock::now();
    const MemoryOps ops = caches_.access(addr, access.is_write);
    t.cache_s += seconds_since(t0);
    const CpuLatencies& lat = cpu_.latencies();
    switch (ops.hit_level) {
      case 1: cpu_.add_latency(access.is_write ? 1 : lat.l1_hit); break;
      case 2: cpu_.add_latency(access.is_write ? 1 : lat.l2_hit); break;
      case 3: cpu_.add_latency(access.is_write ? 1 : lat.l3_hit); break;
      default: break;
    }

    for (const Addr wb : ops.writebacks) write(wb, t);
    if (ops.miss_fill) {
      Block loaded;
      Cycle done = 0;
      t0 = Clock::now();
      try {
        done = mem_->read_block(ops.fill_addr, cpu_.now(), &loaded);
      } catch (const StatusError&) {
        (void)caches_.flush_block(ops.fill_addr);
        throw;
      }
      const double read_s = seconds_since(t0);
      t.read_s += read_s;
      t.read_ns.add(static_cast<std::uint64_t>(read_s * 1e9));
      if (access.is_write) {
        cpu_.add_latency(lat.store_miss_overlap);
      } else {
        const Block* known = truth_.find(ops.fill_addr);
        if (loaded != (known != nullptr ? *known : zero_block())) {
          throw std::logic_error("traced replay read wrong plaintext");
        }
        cpu_.stall_until(done);
      }
    }

    if (access.flush) {
      t0 = Clock::now();
      const Writebacks wbs = caches_.flush_block(addr);
      t.cache_s += seconds_since(t0);
      for (const Addr wb : wbs) cpu_.stall_until(write(wb, t));
    }
  }

  SystemConfig cfg_;
  std::unique_ptr<SecureMemory> mem_;
  CacheHierarchy caches_;
  CpuModel cpu_;
  FlatMap<Block> truth_;
  std::uint64_t store_seq_ = 0;
  std::uint64_t accesses_ = 0;
  Cycle epoch_cycles_ = 0;
  std::uint64_t epoch_insts_ = 0;
};

SystemConfig config_for(const SchemeSpec& v) {
  SystemConfig cfg = default_config();
  cfg.counter_mode = v.mode;
  return cfg;
}

}  // namespace

Outcome run_system_workload(const Options& opt) {
  const SystemWorkload w = workload_for(opt.workload);
  const std::size_t warmup = w.warmup_slices * kSlice;
  const std::size_t total = (w.warmup_slices + w.measured_slices) * kSlice;

  Outcome out;
  Metrics first_sim;
  std::map<std::string, Metrics> reference;  // label -> untraced RunStats
  std::vector<double> ops_rate, untraced_unit_s, traced_unit_s;
  Samples setup, slice_ms, run_s;
  std::vector<LayerTimes> traced;

  auto untraced_unit = [&](unsigned unit) {
    Metrics sim;
    std::map<std::string, RunStats> stats;
    double unit_s = 0;
    for (const SchemeSpec& v : w.variants) {
      const SystemConfig cfg = config_for(v);
      auto t0 = Clock::now();
      System sys(cfg, v.scheme);
      setup[v.label].push_back(seconds_since(t0));

      t0 = Clock::now();
      const std::vector<MemAccess> trace = materialize(w.trace, total, opt.seed);
      double v_s = seconds_since(t0);
      double v_run_s = 0;
      for (std::size_t s = 0; s * kSlice < total; ++s) {
        SpanTrace slice(trace.data() + s * kSlice, kSlice);
        out.attempted += kSlice;
        t0 = Clock::now();
        try {
          (void)sys.run(slice, 0);
        } catch (const std::exception& e) {
          out.fail_op(v.label + ": " + e.what());
        }
        const double dt = seconds_since(t0);
        slice_ms[v.label].push_back(dt * 1e3);
        v_run_s += dt;
        if ((s + 1) * kSlice == warmup) sys.reset_stats();
      }
      run_s[v.label].push_back(v_run_s);
      v_s += v_run_s;
      unit_s += v_s;

      const RunStats st = sys.collect_stats();
      stats[v.label] = st;
      if (unit == 0) reference[v.label] = flatten(st);
      const CacheStats& l3 = sys.caches().l3_stats();
      if (v.label == w.variants.front().label) {
        sim["cache.l3_miss_rate"] = 1.0 - l3.hit_rate();
        sim["cache.llc_writebacks"] = static_cast<double>(l3.dirty_evictions);
      }
      const ExecStats& m = st.mem;
      const std::string& l = v.label;
      sim["sim.cycles." + l] = static_cast<double>(st.cycles);
      sim["secure.mcache_hit_rate." + l] = st.mcache_hit_rate;
      sim["secure.meta_reads." + l] = static_cast<double>(m.meta_reads);
      sim["crypto.hash_ops." + l] = static_cast<double>(m.hash_ops);
      sim["secure.meta_writes." + l] = static_cast<double>(m.meta_writes);
      sim["schemes.aux_writes." + l] = static_cast<double>(m.aux_writes);
      sim["nvm.write_queue_stalls." + l] = static_cast<double>(write_queue_stalls(sys.memory()));
      sim["secure.reencryptions." + l] = static_cast<double>(m.reencryptions);
    }
    const RunStats& steins = stats.at("Steins-GC");
    const RunStats& wb = stats.at("WB-GC");
    sim["sim_steins_s"] = steins.seconds(config_for(w.variants.front()));
    sim["sim_steins_norm"] = static_cast<double>(steins.cycles) / static_cast<double>(wb.cycles);
    sim["sim_nvm_writes_norm"] = static_cast<double>(steins.mem.nvm_writes()) /
                                 static_cast<double>(wb.mem.nvm_writes());
    sim["secure.read_lat_norm"] = steins.read_latency_cycles / wb.read_latency_cycles;
    sim["secure.write_lat_norm"] = steins.write_latency_cycles / wb.write_latency_cycles;
    sim["sim.energy_norm"] = steins.energy_nj / wb.energy_nj;
    check_repeat(out, first_sim, sim, unit);
    untraced_unit_s.push_back(unit_s);
    ops_rate.push_back(static_cast<double>(total * w.variants.size()) / unit_s);
  };

  auto traced_unit = [&]() {
    LayerTimes t;
    for (const SchemeSpec& v : w.variants) {
      TracedSystem sys(config_for(v), v.scheme);
      const auto t0 = Clock::now();
      const std::vector<MemAccess> trace = materialize(w.trace, total, opt.seed);
      t.gen_s += seconds_since(t0);
      out.attempted += total;
      try {
        sys.replay(trace, warmup, t);
      } catch (const std::exception& e) {
        out.fail_op(v.label + " (traced): " + e.what());
        continue;
      }
      if (flatten(sys.collect_stats()) != reference.at(v.label)) {
        out.inconsistent(v.label + ": traced replay diverges from System::run");
      }
    }
    traced_unit_s.push_back(t.gen_s + t.replay_s);
    traced.push_back(std::move(t));
  };

  // A traced run alternates untraced and traced units (untraced first: it
  // is the reference the traced replay must reproduce).
  run_units(opt, opt.trace ? 2 : 1, [&](unsigned i) {
    if (opt.trace && i % 2 == 1) {
      traced_unit();
    } else {
      untraced_unit(opt.trace ? i / 2 : i);
    }
  });

  out.publish_sim(first_sim);
  out.end_to_end["setup_s"] = mean_percentile(setup, 50);
  out.end_to_end["host_ops_per_s"] = median(ops_rate);
  out.end_to_end["host_call_ms_p90"] = mean_percentile(slice_ms, 90);

  for (const auto& [label, v] : run_s) out.per_layer["sim.run_s." + label] = median(v);
  if (!traced.empty()) {
    auto med = [&](double LayerTimes::*f) {
      std::vector<double> v;
      for (const LayerTimes& t : traced) v.push_back(t.*f);
      return median(v);
    };
    LatencyHistogram read_ns;
    std::vector<double> self_s;
    for (const LayerTimes& t : traced) {
      read_ns.merge(t.read_ns);
      self_s.push_back(t.replay_s - t.cache_s - t.cache_prefetch_s - t.read_s - t.write_s - t.hint_s);
    }
    out.per_layer["trace.gen_s"] = med(&LayerTimes::gen_s);
    out.per_layer["cache.access_s"] = med(&LayerTimes::cache_s);
    out.per_layer["cache.prefetch_s"] = med(&LayerTimes::cache_prefetch_s);
    out.per_layer["secure.read_block_s"] = med(&LayerTimes::read_s);
    out.per_layer["secure.read_block_ns_p50"] = read_ns.percentile(50);
    out.per_layer["secure.read_block_ns_p99"] = read_ns.percentile(99);
    out.per_layer["secure.write_block_s"] = med(&LayerTimes::write_s);
    out.per_layer["secure.prefetch_hint_s"] = med(&LayerTimes::hint_s);
    out.per_layer["sim.step_self_s"] = median(self_s);
    out.per_layer["bench.trace_overhead_frac"] =
        median(traced_unit_s) / median(untraced_unit_s) - 1.0;
  }
  return out;
}

}  // namespace perfbench
