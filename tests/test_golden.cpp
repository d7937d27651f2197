// Golden simulated outputs: one small fixed trace plus one crash()/recover()
// on each evaluated scheme, pinned field by field. Every ExecStats counter,
// the write queue's stall count and the recovery report's reads, writes,
// nodes and verdict are deterministic functions of the model, so a change
// that only makes the simulator faster must leave all of them unchanged.
// A deliberate change to the modelled numbers updates the table below; the
// failure message prints the new row ready to paste.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>

#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::small_config;

constexpr std::size_t kFields = 22;

constexpr std::array<const char*, kFields> kNames = {
    "read_latency.count", "read_latency.sum", "read_latency.max",
    "write_latency.count", "write_latency.sum", "write_latency.max",
    "data_reads", "data_writes", "meta_reads", "meta_writes",
    "aux_reads", "aux_writes", "aux_write_bytes", "hash_ops",
    "aes_ops", "mcache_accesses", "reencryptions", "write_queue_stalls",
    "recovery.nvm_reads", "recovery.nvm_writes", "recovery.nodes_recovered",
    "recovery.ok",
};

using Row = std::array<std::uint64_t, kFields>;

struct GoldenCase {
  const char* label;
  Scheme scheme;
  CounterMode mode;
  Row expect;
};

/// The fixed trace: a third reads, two thirds writes, over a footprint far
/// larger than the 16 KB metadata cache (so every scheme evicts and flushes
/// dirty nodes), then one block hammered past a split-counter minor
/// overflow. Read-backs are checked as the trace goes.
Row observe(Scheme scheme, CounterMode mode) {
  auto mem = make_scheme(scheme, small_config(mode));
  auto& base = dynamic_cast<SecureMemoryBase&>(*mem);
  Driver d(*mem, 7);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t block = d.rng().below(30'000);
    if (d.rng().below(3) == 0) {
      EXPECT_TRUE(d.read_check(block)) << "block " << block;
    } else {
      d.write(block);
    }
  }
  for (int i = 0; i < 300; ++i) d.write(4242);
  EXPECT_TRUE(d.read_check(4242));

  const ExecStats s = mem->stats();
  const std::uint64_t stalls = base.channel().stats().write_queue_stalls;
  mem->crash();
  const RecoveryReport r = mem->recover();
  if (r.ok()) {
    EXPECT_TRUE(d.check_all());
  }
  return {s.read_latency.count, s.read_latency.sum, s.read_latency.max,
          s.write_latency.count, s.write_latency.sum, s.write_latency.max,
          s.data_reads, s.data_writes, s.meta_reads, s.meta_writes,
          s.aux_reads, s.aux_writes, s.aux_write_bytes, s.hash_ops,
          s.aes_ops, s.mcache_accesses, s.reencryptions, stalls,
          r.nvm_reads, r.nvm_writes, r.nodes_recovered, r.ok() ? 1u : 0u};
}

std::string format_row(const Row& row) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < row.size(); ++i) os << (i ? ", " : "") << row[i] << "u";
  os << "}";
  return os.str();
}

const GoldenCase kCases[] = {
    {"WB-GC", Scheme::kWriteBack, CounterMode::kGeneral,
     {994u, 1867571u, 5575u, 2307u, 4577045u, 5350u,
      994u, 2307u, 6652u, 3951u, 0u, 0u,
      0u, 9688u, 3301u, 13872u, 0u, 118u,
      0u, 0u, 0u, 0u}},
    {"ASIT", Scheme::kAnubis, CounterMode::kGeneral,
     {994u, 2514359u, 9085u, 2307u, 11637613u, 17331u,
      994u, 2307u, 6652u, 3951u, 0u, 6244u,
      0u, 34664u, 3301u, 13872u, 0u, 3919u,
      483u, 161u, 161u, 1u}},
    {"STAR", Scheme::kStar, CounterMode::kGeneral,
     {994u, 1867571u, 5575u, 2307u, 5986809u, 7637u,
      994u, 2307u, 6652u, 3951u, 11u, 0u,
      0u, 52609u, 3301u, 13872u, 0u, 118u,
      1461u, 0u, 161u, 1u}},
    {"Steins-GC", Scheme::kSteins, CounterMode::kGeneral,
     {994u, 2431499u, 8770u, 2307u, 4133911u, 3900u,
      994u, 2307u, 6821u, 4118u, 0u, 0u,
      0u, 10032u, 3301u, 15287u, 0u, 119u,
      2329u, 18u, 251u, 1u}},
    {"Steins-SC", Scheme::kSteins, CounterMode::kSplit,
     {994u, 956600u, 2746u, 2307u, 3166500u, 3777u,
      998u, 2311u, 2052u, 1407u, 0u, 0u,
      0u, 5116u, 3309u, 6850u, 4u, 672u,
      12101u, 18u, 241u, 1u}},
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.label; }

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, SimulatedOutputsMatchRecordedRun) {
  const GoldenCase& c = GetParam();
  const Row got = observe(c.scheme, c.mode);
  for (std::size_t i = 0; i < kFields; ++i) {
    EXPECT_EQ(got[i], c.expect[i]) << c.label << " " << kNames[i];
  }
  if (got != c.expect) ADD_FAILURE() << c.label << " observed row: " << format_row(got);
}

INSTANTIATE_TEST_SUITE_P(Schemes, Golden, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           std::string name = info.param.label;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace steins
