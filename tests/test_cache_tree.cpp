// The cache-tree of ASIT and STAR is settled once, at crash(), instead of
// after every metadata modification (schemes/cache_tree.hpp). These cases
// probe the moments where a lazily settled root register could drift from
// the state it summarises: after each one, recovery must verify cleanly
// (no false attack verdict) and every block must read back its last write.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "schemes/anubis.hpp"
#include "schemes/star.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::small_config;

struct TreeScheme {
  const char* label;
  Scheme scheme;
};

void PrintTo(const TreeScheme& s, std::ostream* os) { *os << s.label; }

class LazyCacheTree : public ::testing::TestWithParam<TreeScheme> {
 protected:
  std::unique_ptr<SecureMemory> make(std::size_t mcache_bytes = 16 * 1024) {
    return make_scheme(GetParam().scheme, small_config(CounterMode::kGeneral, mcache_bytes));
  }

  static void expect_clean_recovery(SecureMemory& mem, Driver& d, const std::string& when) {
    mem.crash();
    const RecoveryReport r = mem.recover();
    EXPECT_FALSE(r.attack_detected) << when << ": " << r.attack_detail;
    EXPECT_TRUE(r.ok()) << when << ": " << r.summary();
    EXPECT_TRUE(d.check_all()) << when;
  }
};

TEST_P(LazyCacheTree, TinyMetadataCacheWithOneOrTwoTreeLevels) {
  // 512 B = 8 lines in one 8-way set: STAR's tree is a single set-MAC, the
  // root itself; ASIT's is 8 leaf MACs under the root. 4 KB adds a level.
  for (const std::size_t bytes : {std::size_t{512}, std::size_t{4096}}) {
    auto mem = make(bytes);
    Driver d(*mem, 3);
    d.write_random(600, 4000);
    expect_clean_recovery(*mem, d, std::to_string(bytes) + " B cache");
  }
}

TEST_P(LazyCacheTree, CrashRightAfterCleanToDirtyTransition) {
  auto mem = make();
  auto& base = dynamic_cast<SecureMemoryBase&>(*mem);
  Driver d(*mem, 5);
  d.write_random(800, 20'000);
  base.flush_all_metadata();
  d.write(123);  // its leaf goes clean -> dirty, nothing else changes
  expect_clean_recovery(*mem, d, "after one clean->dirty write");
}

TEST_P(LazyCacheTree, CrashWithNoModificationSinceLastRecovery) {
  auto mem = make();
  Driver d(*mem, 7);
  d.write_random(800, 20'000);
  expect_clean_recovery(*mem, d, "first crash");
  expect_clean_recovery(*mem, d, "second crash, nothing modified since recovery");
}

TEST_P(LazyCacheTree, TwoCrashRecoverCyclesBackToBack) {
  auto mem = make();
  Driver d(*mem, 9);
  d.write_random(800, 20'000);
  expect_clean_recovery(*mem, d, "first cycle");
  d.write_random(400, 20'000);
  expect_clean_recovery(*mem, d, "second cycle");
}

TEST_P(LazyCacheTree, CrashAfterFlushAllMetadata) {
  auto mem = make();
  auto& base = dynamic_cast<SecureMemoryBase&>(*mem);
  Driver d(*mem, 11);
  d.write_random(800, 20'000);
  base.flush_all_metadata();
  expect_clean_recovery(*mem, d, "after flush_all_metadata");
}

INSTANTIATE_TEST_SUITE_P(Schemes, LazyCacheTree,
                         ::testing::Values(TreeScheme{"ASIT", Scheme::kAnubis},
                                           TreeScheme{"STAR", Scheme::kStar}),
                         [](const ::testing::TestParamInfo<TreeScheme>& info) {
                           return std::string(info.param.label);
                         });

TEST(LazyCacheTreeAsit, NestedCrashDuringRecoveryConverges) {
  // ASIT's recovery replays shadow entries through on_node_modified, so a
  // nested crash lands on a tree that was modified during recovery itself.
  // The retry's crash() must settle it before the register is read again.
  for (const std::uint64_t boundary : {1u, 2u, 7u, 30u}) {
    AnubisMemory mem(small_config());
    Driver d(mem, 13);
    d.write_random(800, 20'000);
    FaultInjector injector(FaultPlan{});
    mem.set_fault_injector(&injector);
    injector.arm_recovery_crash(boundary);
    mem.crash();
    const RecoveryReport r = recover_with_retry(mem, &injector);
    mem.set_fault_injector(nullptr);
    EXPECT_EQ(injector.recovery_crashes(), 1u) << "boundary " << boundary;
    EXPECT_GE(r.attempt_count(), 2u) << "boundary " << boundary;
    EXPECT_FALSE(r.attack_detected) << "boundary " << boundary << ": " << r.attack_detail;
    EXPECT_TRUE(r.ok()) << "boundary " << boundary << ": " << r.summary();
    EXPECT_TRUE(d.check_all()) << "boundary " << boundary;
    mem.crash();
    const RecoveryReport again = mem.recover();
    EXPECT_TRUE(again.ok()) << "boundary " << boundary << ", next crash: " << again.summary();
    EXPECT_TRUE(d.check_all()) << "boundary " << boundary << ", next crash";
  }
}

}  // namespace
}  // namespace steins
