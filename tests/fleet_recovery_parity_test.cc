// Fleet recovery fans shards out across threads; these tests pin it to the
// serial definition. For Fleet::Recover, RecoverToCut and RecoverToTick, at
// K = 1, 2 and 4 under both disk organizations, every recovered table is
// byte-identical to, and every per-shard RecoveryResult equal to, calling
// the per-shard recovery functions one shard at a time. Failures fold in
// shard order: one shard's Corruption sends cut and tick recovery to the
// fleet-wide fallback, and of two failing shards the lower one's status is
// the one returned.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "engine/consistent_cut.h"
#include "engine/fleet.h"
#include "engine/fleet_manifest.h"
#include "engine/mutator.h"
#include "engine/paths.h"
#include "engine/recovery.h"
#include "engine/sharded_engine.h"

namespace tickpoint {
namespace {

StateLayout ShardLayout() { return StateLayout::Small(384, 10); }

constexpr uint64_t kUpdatesPerTick = 120;
constexpr uint64_t kTicks = 23;

using SerialFn =
    std::function<StatusOr<RecoveryResult>(const EngineConfig&, StateTable*)>;

class FleetRecoveryParityTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, AlgorithmKind>> {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_parity_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  uint32_t num_shards() const { return std::get<0>(GetParam()); }

  /// Runs kTicks ticks with retention on and one committed cut mid-run,
  /// then crashes the fleet.
  void RunAndCrash() {
    ShardedEngineConfig config;
    config.shard.layout = ShardLayout();
    config.shard.algorithm = std::get<1>(GetParam());
    config.shard.fsync = false;  // simulated crashes: page cache is durable
    config.shard.full_flush_period = 3;
    config.shard.retention.enabled = true;
    config.shard.retention.max_generations = 3;
    config.num_shards = num_shards();
    config.checkpoint_period_ticks = 4;
    config.threaded = true;
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    const uint64_t num_cells = ShardLayout().num_cells();
    bool cut_committed = false;
    uint64_t cut_tick = UINT64_MAX;
    for (uint64_t tick = 0; tick < kTicks; ++tick) {
      if (tick == 9) {
        auto cut_or = fleet.RequestConsistentCut();
        ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
        cut_tick = cut_or.value();
      }
      fleet.BeginTick();
      for (uint32_t p = 0; p < fleet.num_partitions(); ++p) {
        for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
          const uint32_t cell = WorkloadCell(p, tick, i, num_cells);
          fleet.ApplyUpdate(p, cell, WorkloadValue(tick, cell, i));
        }
      }
      ASSERT_TRUE(fleet.EndTick().ok());
      if (!cut_committed && tick >= cut_tick) {
        ASSERT_TRUE(fleet.CommitConsistentCut().ok());
        cut_committed = true;
      }
    }
    ASSERT_TRUE(cut_committed);
    ASSERT_TRUE(fleet.SimulateCrash().ok());
  }

  /// Shard p's recovery config, resolved from the manifest as the fleet
  /// entry points resolve it.
  EngineConfig ShardConfig(uint32_t p) const {
    auto manifest_or = ReadNewestFleetManifest(dir_);
    EXPECT_TRUE(manifest_or.ok()) << manifest_or.status().ToString();
    EngineConfig shard = ConfigFromManifest(manifest_or.value(), dir_).shard;
    shard.dir = manifest_or.value().PartitionDir(dir_, p);
    return shard;
  }

  /// Recovers every shard one at a time with `serial` and checks that the
  /// fleet result matches it table for table and field for field.
  void ExpectMatchesSerial(const RecoveredFleet& fleet,
                           const SerialFn& serial) {
    const ShardedRecoveryResult& result = fleet.result().fleet;
    ASSERT_EQ(fleet.tables().size(), num_shards());
    ASSERT_EQ(result.shards.size(), num_shards());
    uint64_t min_ticks = UINT64_MAX;
    uint64_t max_ticks = 0;
    for (uint32_t p = 0; p < num_shards(); ++p) {
      SCOPED_TRACE("shard " + std::to_string(p));
      StateTable table(ShardLayout());
      auto expected_or = serial(ShardConfig(p), &table);
      ASSERT_TRUE(expected_or.ok()) << expected_or.status().ToString();
      const RecoveryResult& expected = expected_or.value();
      const RecoveryResult& actual = result.shards[p];
      const StateTable& recovered = fleet.tables()[p];
      EXPECT_TRUE(recovered.ContentEquals(table));  // byte-identical
      EXPECT_EQ(actual.image_seq, expected.image_seq);
      EXPECT_EQ(actual.image_consistent_ticks,
                expected.image_consistent_ticks);
      EXPECT_EQ(actual.restored_from_checkpoint,
                expected.restored_from_checkpoint);
      EXPECT_EQ(actual.ticks_replayed, expected.ticks_replayed);
      EXPECT_EQ(actual.recovered_ticks, expected.recovered_ticks);
      min_ticks = std::min(min_ticks, expected.recovered_ticks);
      max_ticks = std::max(max_ticks, expected.recovered_ticks);
    }
    EXPECT_EQ(result.min_recovered_ticks, min_ticks);
    EXPECT_EQ(result.max_recovered_ticks, max_ticks);
  }

  /// Leaves shard p with no checkpoint image, no history and an empty
  /// logical log: plain recovery still succeeds (zeroed state), but no
  /// earlier tick is reproducible, so cut and tick recovery see Corruption.
  void StripShard(uint32_t p) {
    const std::string dir = ShardConfig(p).dir;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      uint64_t gen = 0;
      if (name == paths::BackupImageFileName(0) ||
          name == paths::BackupImageFileName(1) ||
          paths::ParseLogGenerationFileName(name, &gen)) {
        std::filesystem::remove(entry.path());
      }
    }
    std::filesystem::remove_all(paths::HistoryDir(dir));
    std::filesystem::resize_file(paths::LogicalLogPath(dir), 0);
  }

  std::string dir_;
};

TEST_P(FleetRecoveryParityTest, RecoverMatchesSerial) {
  RunAndCrash();
  auto fleet_or = Fleet::Recover(dir_);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  EXPECT_EQ(fleet_or->result().fleet.min_recovered_ticks, kTicks);
  ExpectMatchesSerial(*fleet_or, Recover);
}

TEST_P(FleetRecoveryParityTest, RecoverToCutMatchesSerial) {
  RunAndCrash();
  auto fleet_or = Fleet::RecoverToCut(dir_);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  ASSERT_TRUE(fleet_or->at_cut());
  const uint64_t cut = fleet_or->result().cut_tick;
  ExpectMatchesSerial(*fleet_or,
                      [cut](const EngineConfig& config, StateTable* out) {
                        return RecoverToTick(config, cut, out);
                      });
}

TEST_P(FleetRecoveryParityTest, RecoverToTickMatchesSerial) {
  RunAndCrash();
  auto window_or = Fleet::RestorableWindow(dir_);
  ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
  ASSERT_TRUE(window_or->any);
  for (uint64_t tick : {window_or->low_tick, window_or->high_tick}) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    auto fleet_or = Fleet::RecoverToTick(dir_, tick);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ASSERT_TRUE(fleet_or->at_requested_tick());
    ExpectMatchesSerial(*fleet_or,
                        [tick](const EngineConfig& config, StateTable* out) {
                          return RecoverToHistoricTick(config, tick, out);
                        });
  }
}

TEST_P(FleetRecoveryParityTest, OneCorruptShardFallsBackFleetWide) {
  RunAndCrash();
  const uint32_t broken = num_shards() - 1;
  StripShard(broken);
  {
    StateTable table(ShardLayout());
    ASSERT_EQ(RecoverToHistoricTick(ShardConfig(broken), kTicks - 1, &table)
                  .status()
                  .code(),
              StatusCode::kCorruption);
  }
  auto cut_or = Fleet::RecoverToCut(dir_);
  ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
  EXPECT_FALSE(cut_or->at_cut());
  ExpectMatchesSerial(*cut_or, Recover);

  auto tick_or = Fleet::RecoverToTick(dir_, kTicks - 1);
  ASSERT_TRUE(tick_or.ok()) << tick_or.status().ToString();
  EXPECT_FALSE(tick_or->at_requested_tick());
  ExpectMatchesSerial(*tick_or, Recover);
}

TEST_P(FleetRecoveryParityTest, LowestFailingShardDecides) {
  if (num_shards() < 2) GTEST_SKIP() << "needs two shards to fail";
  RunAndCrash();
  // Two shards lose their logical log: both fail with an I/O error.
  const uint32_t low = num_shards() - 2;
  for (uint32_t p : {low, num_shards() - 1}) {
    std::filesystem::remove(paths::LogicalLogPath(ShardConfig(p).dir));
  }
  const EngineConfig low_config = ShardConfig(low);
  StateTable table(ShardLayout());
  const Status plain = Recover(low_config, &table).status();
  ASSERT_EQ(plain.code(), StatusCode::kIOError);
  EXPECT_EQ(Fleet::Recover(dir_).status(), plain);

  auto manifest_or = ReadCutManifest(dir_);
  ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().ToString();
  EXPECT_EQ(Fleet::RecoverToCut(dir_).status(),
            RecoverToTick(low_config, manifest_or->cut_tick, &table).status());
  EXPECT_EQ(Fleet::RecoverToTick(dir_, kTicks - 1).status(),
            RecoverToHistoricTick(low_config, kTicks - 1, &table).status());
}

INSTANTIATE_TEST_SUITE_P(
    KAndDisk, FleetRecoveryParityTest,
    ::testing::Combine(
        ::testing::Values(1u, 2u, 4u),
        ::testing::Values(AlgorithmKind::kCopyOnUpdate,
                          AlgorithmKind::kCopyOnUpdatePartialRedo)),
    [](const auto& info) {
      return "K" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == AlgorithmKind::kCopyOnUpdate
                  ? "_backup"
                  : "_log");
    });

}  // namespace
}  // namespace tickpoint
