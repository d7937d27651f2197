// crash_recover: repeated Fig. 17 cycles through make_scheme +
// SecureMemory::write_block / crash / recover / read_block.
//
// Each cycle writes one block under each of 2x(metadata-cache lines)
// distinct leaves, so every cache line holds a dirty leaf at the crash,
// then recovers and reads every written block back.
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "secure/secure_memory.hpp"

namespace perfbench {

using namespace steins;

namespace {

constexpr std::size_t kMetadataCacheBytes = 256 * 1024;
constexpr std::size_t kLeaves = 2 * kMetadataCacheBytes / kBlockSize;
constexpr unsigned kCyclesPerUnit = 4;

std::vector<SchemeSpec> recover_variants() {
  return {{Scheme::kAnubis, CounterMode::kGeneral, "ASIT"},
          {Scheme::kStar, CounterMode::kGeneral, "STAR"},
          {Scheme::kSteins, CounterMode::kGeneral, "Steins-GC"},
          {Scheme::kSteins, CounterMode::kSplit, "Steins-SC"}};
}

/// Seed-derived inputs: which block under each leaf is written, the fill
/// order of each cycle, and the data of every write.
struct Inputs {
  std::vector<std::uint64_t> slot_draw;            // per leaf
  std::vector<std::vector<std::uint32_t>> order;   // per cycle, a permutation of leaves

  explicit Inputs(std::uint64_t seed) : slot_draw(kLeaves), order(kCyclesPerUnit) {
    Xoshiro256 rng(derive_stream_seed(seed, kCyclesPerUnit));
    for (auto& s : slot_draw) s = rng.next();
    for (unsigned c = 0; c < kCyclesPerUnit; ++c) {
      Xoshiro256 perm(derive_stream_seed(seed, c));
      auto& o = order[c];
      o.resize(kLeaves);
      for (std::uint32_t i = 0; i < kLeaves; ++i) o[i] = i;
      for (std::size_t i = kLeaves - 1; i > 0; --i) std::swap(o[i], o[perm.next() % (i + 1)]);
    }
  }
};

Block block_data(std::uint64_t seed, unsigned cycle, std::uint64_t leaf) {
  Block b{};
  SplitMix64 mix(derive_stream_seed(seed, (leaf << 8) | cycle));
  for (std::size_t i = 0; i < b.size(); i += 8) {
    const std::uint64_t v = mix.next();
    std::memcpy(b.data() + i, &v, 8);
  }
  return b;
}

struct VariantSim {
  double recovery_s = 0, recovery_nvm_reads = 0, recovery_nodes = 0, fill_nvm_writes = 0;
  ExecStats exec;  // summed over cycles (counters only)
};

void add_counters(ExecStats& sum, const ExecStats& s) {
  sum.meta_reads += s.meta_reads;
  sum.meta_writes += s.meta_writes;
  sum.aux_writes += s.aux_writes;
  sum.hash_ops += s.hash_ops;
  sum.reencryptions += s.reencryptions;
}

struct HostTimes {
  double fill_s = 0, write_s = 0, read_s = 0;
  LatencyHistogram read_ns;
  std::map<std::string, std::vector<double>> recover_ms;
};

}  // namespace

Outcome run_crash_recover(const Options& opt) {
  const Inputs in(opt.seed);
  const std::vector<SchemeSpec> variants = recover_variants();

  Outcome out;
  Metrics first_sim;
  std::vector<double> ops_rate, untraced_unit_s, traced_unit_s;
  Samples setup, recover_ms;
  std::vector<HostTimes> traced;

  auto unit = [&](unsigned index, bool timed_calls) {
    HostTimes h;
    Metrics sim;
    std::map<std::string, VariantSim> vs;
    double unit_s = 0;
    std::uint64_t ops = 0;
    for (const SchemeSpec& v : variants) {
      SystemConfig cfg = default_config();
      cfg.counter_mode = v.mode;
      cfg.secure.metadata_cache.size_bytes = kMetadataCacheBytes;
      auto t0 = Clock::now();
      std::unique_ptr<SecureMemory> mem = make_scheme(v.scheme, cfg);
      setup[v.label].push_back(seconds_since(t0));
      const std::uint64_t coverage = mem->geometry().leaf_coverage();
      auto addr_of = [&](std::uint64_t leaf) {
        return (leaf * coverage + in.slot_draw[leaf] % coverage) * kBlockSize;
      };

      VariantSim& s = vs[v.label];
      Cycle now = 0;
      for (unsigned c = 0; c < kCyclesPerUnit; ++c) {
        mem->stats().reset();
        const auto cycle_t0 = Clock::now();
        for (const std::uint32_t leaf : in.order[c]) {
          const Block data = block_data(opt.seed, c, leaf);
          ++out.attempted;
          const auto w0 = Clock::now();
          try {
            now = mem->write_block(addr_of(leaf), data, now);
          } catch (const std::exception& e) {
            out.fail_op(v.label + " write: " + e.what());
          }
          if (timed_calls) h.write_s += seconds_since(w0);
        }
        h.fill_s += seconds_since(cycle_t0);
        s.fill_nvm_writes += static_cast<double>(mem->stats().nvm_writes());

        mem->crash();
        ++out.attempted;
        t0 = Clock::now();
        const RecoveryReport rep = mem->recover();
        const double rec_ms = seconds_since(t0) * 1e3;
        recover_ms[v.label].push_back(rec_ms);
        h.recover_ms[v.label].push_back(rec_ms);
        if (!rep.ok()) out.fail_op(v.label + " recover: " + rep.summary() + rep.attack_detail);
        s.recovery_s += rep.seconds;
        s.recovery_nvm_reads += static_cast<double>(rep.nvm_reads);
        s.recovery_nodes += static_cast<double>(rep.nodes_recovered);

        for (std::uint64_t leaf = 0; leaf < kLeaves; ++leaf) {
          Block got{};
          ++out.attempted;
          const auto r0 = Clock::now();
          try {
            now = mem->read_block(addr_of(leaf), now, &got);
          } catch (const std::exception& e) {
            out.fail_op(v.label + " read-back: " + e.what());
            continue;
          }
          if (timed_calls) {
            const double dt = seconds_since(r0);
            h.read_s += dt;
            h.read_ns.add(static_cast<std::uint64_t>(dt * 1e9));
          }
          if (got != block_data(opt.seed, c, leaf)) {
            out.fail_op(v.label + " read-back differs from the last write");
          }
        }
        unit_s += seconds_since(cycle_t0);
        ops += 2 * kLeaves;
        add_counters(s.exec, mem->stats());
      }

      const std::string& l = v.label;
      const double cycles = kCyclesPerUnit;
      sim["schemes.recovery_sim_s." + l] = s.recovery_s / cycles;
      sim["schemes.recovery_nvm_reads." + l] = s.recovery_nvm_reads / cycles;
      sim["schemes.recovery_nodes." + l] = s.recovery_nodes / cycles;
      sim["secure.mcache_hit_rate." + l] = mem->metadata_cache_stats().hit_rate();
      sim["secure.meta_reads." + l] = static_cast<double>(s.exec.meta_reads);
      sim["secure.meta_writes." + l] = static_cast<double>(s.exec.meta_writes);
      sim["schemes.aux_writes." + l] = static_cast<double>(s.exec.aux_writes);
      sim["crypto.hash_ops." + l] = static_cast<double>(s.exec.hash_ops);
      sim["secure.reencryptions." + l] = static_cast<double>(s.exec.reencryptions);
      if (auto* base = dynamic_cast<SecureMemoryBase*>(mem.get())) {
        sim["nvm.write_queue_stalls." + l] =
            static_cast<double>(base->channel().stats().write_queue_stalls);
      }
    }
    const VariantSim& steins = vs.at("Steins-GC");
    const VariantSim& asit = vs.at("ASIT");
    sim["sim_steins_s"] = steins.recovery_s / kCyclesPerUnit;
    sim["sim_steins_norm"] = steins.recovery_s / asit.recovery_s;
    sim["sim_nvm_writes_norm"] = steins.fill_nvm_writes / asit.fill_nvm_writes;
    check_repeat(out, first_sim, sim, index);
    if (timed_calls) {
      traced_unit_s.push_back(unit_s);
      traced.push_back(std::move(h));
    } else {
      untraced_unit_s.push_back(unit_s);
      ops_rate.push_back(static_cast<double>(ops) / unit_s);
    }
  };

  run_units(opt, opt.trace ? 2 : 1, [&](unsigned i) { unit(i, opt.trace && i % 2 == 1); });

  out.publish_sim(first_sim);
  out.end_to_end["setup_s"] = mean_percentile(setup, 50);
  out.end_to_end["host_ops_per_s"] = median(ops_rate);
  out.end_to_end["host_call_ms_p90"] = mean_percentile(recover_ms, 90);

  if (!traced.empty()) {
    std::vector<double> fill, write, read;
    std::map<std::string, std::vector<double>> rec;
    LatencyHistogram read_ns;
    for (const HostTimes& h : traced) {
      fill.push_back(h.fill_s);
      write.push_back(h.write_s);
      read.push_back(h.read_s);
      read_ns.merge(h.read_ns);
      for (const auto& [label, v] : h.recover_ms) rec[label].insert(rec[label].end(), v.begin(), v.end());
    }
    out.per_layer["schemes.fill_s"] = median(fill);
    out.per_layer["secure.write_block_s"] = median(write);
    out.per_layer["secure.read_block_s"] = median(read);
    out.per_layer["secure.read_block_ns_p50"] = read_ns.percentile(50);
    out.per_layer["secure.read_block_ns_p99"] = read_ns.percentile(99);
    for (const auto& [label, v] : rec) out.per_layer["schemes.recover_ms." + label] = median(v);
    out.per_layer["bench.trace_overhead_frac"] =
        median(traced_unit_s) / median(untraced_unit_s) - 1.0;
  }
  return out;
}

}  // namespace perfbench
