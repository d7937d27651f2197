// Saturating multi-client YCSB-style driver over MultiControllerMemory.
//
// N logical clients issue KV operations in fixed round-robin order against
// a shared store image interleaved across memory controllers (paper
// §IV-F). The driver runs in epochs, each in two phases:
//
//  1. Schedule resolution (sequential, cheap): each op's client, key, type,
//     and on-media images are derived from the issuing client's private RNG
//     stream and a driver-side shadow of the committed store state — no
//     memory execution needed. The op's accesses are appended, in global op
//     order, to the queue of the controller each address routes to.
//  2. Replay (parallel): every controller serves its queue back-to-back on
//     its own timeline (a work-conserving FIFO server — clients keep each
//     DIMM saturated). Same-address accesses route to the same controller
//     and keep global op order, so every read's data is exact and is
//     validated against the shadow.
//
// At the epoch barrier the per-access service times are folded, in global
// op order, into per-client latency histograms (an op's latency is the sum
// of its accesses' service times, queueing included). Controller queues
// are disjoint and controllers share no mutable state, so replaying them
// on `jobs` worker threads is bit-identical to replaying them inline:
// --jobs N and --jobs 1 produce the same result to the last bit.
//
// Hot keys still collide where it matters: a shared hot DIMM's queue
// serializes while disjoint DIMMs overlap — the controller model's
// contention story — and the run's makespan is the busiest controller's
// frontier.
//
// Key popularity is Zipfian (YCSB's default theta = 0.99), scattered over
// the key space by a multiplicative hash so hot keys spread across
// controllers. Mixes follow the YCSB core workloads:
//   A 50% read / 50% update      B 95% read / 5% update
//   C 100% read                  F 50% read / 50% read-modify-write
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "kv/kv_store.hpp"
#include "secure/secure_memory.hpp"

namespace steins::kv {

enum class Mix { kA, kB, kC, kF };

const char* mix_name(Mix m);
std::optional<Mix> parse_mix(const std::string& name);

struct YcsbConfig {
  Mix mix = Mix::kA;
  unsigned clients = 4;
  unsigned controllers = 2;
  std::uint64_t ops = 100'000;   // measured operations across all clients
  std::uint64_t keys = 10'000;   // preloaded key universe
  std::size_t slots = std::size_t{1} << 15;  // store capacity (power of two)
  std::size_t value_bytes = 24;
  double zipf_s = 0.99;          // YCSB default skew
  std::uint64_t seed = 1;
  Addr base = Addr{1} << 20;
  std::size_t interleave_bytes = 4096;
  /// Host worker threads for controller replay (capped at `controllers`).
  /// Any value produces bit-identical results; 1 replays inline.
  unsigned jobs = 1;
};

struct YcsbResult {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;     // updates + the write half of RMWs
  LatencyHistogram read_lat;     // cycles, merged across clients
  LatencyHistogram update_lat;
  LatencyHistogram all_lat;
  Cycle makespan = 0;            // busiest controller's measured span
  double seconds = 0.0;
  double kops_per_sec = 0.0;
  std::uint64_t nvm_writes = 0;  // across all controllers, incl. preload
};

/// Run one (scheme, mix) cell. Throws std::invalid_argument on nonsense
/// configurations (zero clients, zero controllers, an interleave that is
/// not a nonzero multiple of 64 B, keys overflowing the table, region not
/// fitting the NVM capacity).
YcsbResult run_ycsb(const SystemConfig& cfg, Scheme scheme, const YcsbConfig& ycfg);

}  // namespace steins::kv
