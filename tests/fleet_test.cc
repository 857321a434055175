// The unified Fleet handle (fleet.h): create / open / recover / resume
// from the root directory alone -- NO config argument anywhere after
// Create; topology, layout, algorithm, disk organization, and every knob
// come from the durable fleet manifest. Plus the tentpole's acceptance
// sweep: a crash at EVERY step across a MigratePartition epoch boundary
// recovers the correct topology and the exact state on both sides of the
// migration.
#include "engine/fleet.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "engine/mutator.h"
#include "engine/paths.h"
#include "engine/recovery.h"
#include "fleet_test_util.h"
#include "util/io.h"

namespace tickpoint {
namespace {

StateLayout ShardLayout() { return StateLayout::Small(384, 10); }

constexpr uint64_t kUpdatesPerTick = 120;

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_fleet_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A deliberately non-default config: the round-trip tests prove these
  /// values come back from the MANIFEST, not from defaults.
  ShardedEngineConfig Config(
      uint32_t num_shards, AlgorithmKind kind = AlgorithmKind::kCopyOnUpdate) {
    ShardedEngineConfig config;
    config.shard.layout = ShardLayout();
    config.shard.algorithm = kind;
    config.shard.fsync = false;  // simulated crashes: page cache is durable
    config.shard.full_flush_period = 4;
    config.num_shards = num_shards;
    config.checkpoint_period_ticks = 5;
    return config;
  }

  /// Drives `ticks` fleet ticks of the deterministic workload from the
  /// fleet's CURRENT tick, mirroring every update into `reference`.
  void RunTicks(Fleet* fleet, uint64_t ticks,
                std::vector<StateTable>* reference) {
    const uint64_t num_cells = ShardLayout().num_cells();
    if (reference->empty()) {
      for (uint32_t i = 0; i < fleet->num_partitions(); ++i) {
        reference->emplace_back(ShardLayout());
      }
    }
    for (uint64_t t = 0; t < ticks; ++t) {
      const uint64_t tick = fleet->current_tick();
      fleet->BeginTick();
      for (uint32_t p = 0; p < fleet->num_partitions(); ++p) {
        for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
          const uint32_t cell = WorkloadCell(p, tick, i, num_cells);
          const int32_t value = WorkloadValue(tick, cell, i);
          fleet->ApplyUpdate(p, cell, value);
          (*reference)[p].WriteCell(cell, value);
        }
      }
      ASSERT_TRUE(fleet->EndTick().ok());
    }
  }

  std::string dir_;
};

TEST_F(FleetTest, CreateOpenRecoverRoundTripWithNoConfig) {
  const auto config =
      Config(3, AlgorithmKind::kCopyOnUpdatePartialRedo);
  std::vector<StateTable> reference;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    EXPECT_EQ(fleet.epoch(), 0u);
    EXPECT_EQ(fleet.root(), dir_);
    RunTicks(&fleet, 9, &reference);
    ASSERT_TRUE(fleet.Shutdown().ok());
  }
  // Reopen from the root ALONE: layout, algorithm, K, and the knobs all
  // come back from the manifest.
  {
    auto fleet_or = Fleet::Open(dir_);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    EXPECT_EQ(fleet.num_partitions(), 3u);
    EXPECT_EQ(fleet.current_tick(), 9u);
    EXPECT_EQ(fleet.manifest().config.shard.algorithm,
              AlgorithmKind::kCopyOnUpdatePartialRedo);
    EXPECT_EQ(fleet.manifest().config.shard.layout.rows, ShardLayout().rows);
    EXPECT_EQ(fleet.manifest().config.checkpoint_period_ticks, 5u);
    EXPECT_EQ(fleet.manifest().config.shard.full_flush_period, 4u);
    EXPECT_FALSE(fleet.manifest().config.shard.fsync);
    ASSERT_TRUE(fleet.WaitForIdle().ok());
    for (uint32_t p = 0; p < 3; ++p) {
      EXPECT_TRUE(fleet.engine().shard(p).state().ContentEquals(reference[p]))
          << "partition " << p;
    }
    RunTicks(&fleet, 5, &reference);
    ASSERT_TRUE(fleet.SimulateCrash().ok());
  }
  // Recover from the root alone; the tables must equal the reference.
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  RecoveredFleet& recovered = recovered_or.value();
  EXPECT_FALSE(recovered.at_cut());
  EXPECT_EQ(recovered.resume_tick(), 14u);
  EXPECT_EQ(recovered.manifest().epoch, 0u);
  ASSERT_EQ(recovered.tables().size(), 3u);
  for (uint32_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(recovered.tables()[p].ContentEquals(reference[p]))
        << "partition " << p;
  }
  // ...and the recovered fleet resumes into a live one.
  auto resumed_or = recovered.Resume();
  ASSERT_TRUE(resumed_or.ok()) << resumed_or.status().ToString();
  EXPECT_EQ(resumed_or.value()->current_tick(), 14u);
  ASSERT_TRUE(resumed_or.value()->Shutdown().ok());
}

TEST_F(FleetTest, CreateRefusesAnExistingFleet) {
  {
    auto fleet_or = Fleet::Create(dir_, Config(2));
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ASSERT_TRUE(fleet_or.value()->Shutdown().ok());
  }
  auto again_or = Fleet::Create(dir_, Config(2));
  EXPECT_EQ(again_or.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(FleetTest, CreateRefusesAPreManifestFleetToo) {
  // A pre-manifest root carries shard dirs but NO superblock; Create must
  // still refuse -- its fresh open would truncate every shard's logical
  // log and checkpoints.
  {
    auto fleet_or = Fleet::Create(dir_, Config(2));
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ASSERT_TRUE(fleet_or.value()->Shutdown().ok());
  }
  // Forge the pre-manifest era: the superblock vanishes, the data stays.
  for (const uint64_t epoch : ListFleetManifestEpochs(dir_)) {
    std::filesystem::remove(paths::FleetManifestPath(dir_, epoch));
  }
  auto create_or = Fleet::Create(dir_, Config(2));
  EXPECT_EQ(create_or.status().code(), StatusCode::kFailedPrecondition);
  // The shard data survived the refusal.
  EXPECT_TRUE(std::filesystem::is_directory(paths::ShardDir(dir_, 0)));
  EXPECT_TRUE(
      FileExists(paths::LogicalLogPath(paths::ShardDir(dir_, 0))));
}

TEST_F(FleetTest, OpenOnANonFleetRootIsNotFound) {
  EXPECT_EQ(Fleet::Open(dir_).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(EnsureDirectory(dir_).ok());
  EXPECT_EQ(Fleet::Open(dir_).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Fleet::Recover(dir_).status().code(), StatusCode::kNotFound);
}

TEST_F(FleetTest, MigratePartitionEnforcesItsPreconditions) {
  auto fleet_or = Fleet::Create(dir_, Config(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  std::vector<StateTable> reference;
  RunTicks(&fleet, 2, &reference);
  // No committed cut at the previous tick.
  EXPECT_EQ(fleet.MigratePartition(0, 7).code(),
            StatusCode::kFailedPrecondition);
  // Unknown partition / occupied destination slot.
  auto cut_or = fleet.RequestConsistentCut();
  ASSERT_TRUE(cut_or.ok());
  // A cut still in flight also refuses.
  EXPECT_EQ(fleet.MigratePartition(0, 7).code(),
            StatusCode::kFailedPrecondition);
  RunTicks(&fleet, cut_or.value() + 1 - fleet.current_tick(), &reference);
  ASSERT_TRUE(fleet.CommitConsistentCut().ok());
  EXPECT_EQ(fleet.MigratePartition(9, 7).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.MigratePartition(0, 1).code(),
            StatusCode::kInvalidArgument);
  // One tick past the committed cut: the hand-off point is gone.
  RunTicks(&fleet, 1, &reference);
  EXPECT_EQ(fleet.MigratePartition(0, 7).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.Shutdown().ok());
}

TEST_F(FleetTest, MigrationMovesThePartitionAndBumpsTheEpoch) {
  auto fleet_or = Fleet::Create(dir_, Config(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  std::vector<StateTable> reference;
  RunTicks(&fleet, 3, &reference);
  auto cut_or = fleet.RequestConsistentCut();
  ASSERT_TRUE(cut_or.ok());
  RunTicks(&fleet, cut_or.value() + 1 - fleet.current_tick(), &reference);
  ASSERT_TRUE(fleet.CommitConsistentCut().ok());
  auto status = fleet.MigratePartition(1, 5);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(fleet.epoch(), 1u);
  EXPECT_EQ(fleet.engine().SlotOfPartition(0), 0u);
  EXPECT_EQ(fleet.engine().SlotOfPartition(1), 5u);
  EXPECT_EQ(fleet.last_migration_report().partition, 1u);
  EXPECT_EQ(fleet.last_migration_report().from_slot, 1u);
  EXPECT_EQ(fleet.last_migration_report().to_slot, 5u);
  EXPECT_EQ(fleet.last_migration_report().first_tick_on_new_shard,
            cut_or.value() + 1);
  // On disk: only the epoch-1 manifest, the destination populated, the
  // source directory retired.
  EXPECT_EQ(ListFleetManifestEpochs(dir_), (std::vector<uint64_t>{1}));
  EXPECT_TRUE(std::filesystem::is_directory(paths::ShardDir(dir_, 5)));
  EXPECT_FALSE(std::filesystem::exists(paths::ShardDir(dir_, 1)));
  // The fleet keeps playing across the boundary, and a full no-config
  // round trip lands on the migrated topology with exact state.
  RunTicks(&fleet, 6, &reference);
  ASSERT_TRUE(fleet.SimulateCrash().ok());
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(recovered_or.value().manifest().epoch, 1u);
  EXPECT_EQ(recovered_or.value().manifest().assignment,
            (std::vector<uint32_t>{0, 5}));
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(recovered_or.value().tables()[p].ContentEquals(reference[p]))
        << "partition " << p;
  }
}

TEST_F(FleetTest, MigrationPreservesTheDurableKnobsAcrossAResume) {
  // A resume followed by a migration re-commits the manifest (epoch
  // bump); it must carry the ORIGINAL durable knobs (full_flush_period 4
  // here, not a default) -- the disk keeps telling the truth Fleet::Open
  // relies on. With the Fleet-only lifecycle there is no config-supplying
  // resume left that could drift them, so the knobs must round-trip
  // through Recover -> Resume -> MigratePartition untouched.
  const auto config = Config(2);  // full_flush_period 4 is the durable truth
  std::vector<StateTable> reference;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    RunTicks(fleet_or.value().get(), 4, &reference);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  {
    auto crash_or = Fleet::Recover(dir_);
    ASSERT_TRUE(crash_or.ok()) << crash_or.status().ToString();
    auto fleet_or = crash_or->Resume();
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    auto cut_or = fleet.RequestConsistentCut();
    ASSERT_TRUE(cut_or.ok());
    while (fleet.current_tick() <= cut_or.value()) {
      fleet.BeginTick();
      for (uint32_t p = 0; p < 2; ++p) {
        fleet.ApplyUpdate(p, p, 1);
      }
      ASSERT_TRUE(fleet.EndTick().ok());
    }
    ASSERT_TRUE(fleet.CommitConsistentCut().ok());
    ASSERT_TRUE(fleet.MigratePartition(0, 2).ok());
    ASSERT_TRUE(fleet.Shutdown().ok());
  }
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(recovered_or.value().manifest().epoch, 1u);
  EXPECT_EQ(recovered_or.value().manifest().config.shard.full_flush_period, 4u)
      << "the migration re-committed drifted knobs";
}

TEST_F(FleetTest, MigratesTwoPartitionsAtOneCut) {
  // Multi-partition rebalance: both moves happen at the SAME committed
  // cut (no tick runs in between), each bumping the epoch.
  auto fleet_or = Fleet::Create(dir_, Config(3));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  std::vector<StateTable> reference;
  RunTicks(&fleet, 2, &reference);
  auto cut_or = fleet.RequestConsistentCut();
  ASSERT_TRUE(cut_or.ok());
  RunTicks(&fleet, cut_or.value() + 1 - fleet.current_tick(), &reference);
  ASSERT_TRUE(fleet.CommitConsistentCut().ok());
  ASSERT_TRUE(fleet.MigratePartition(0, 3).ok());
  ASSERT_TRUE(fleet.MigratePartition(2, 4).ok());
  EXPECT_EQ(fleet.epoch(), 2u);
  RunTicks(&fleet, 4, &reference);
  ASSERT_TRUE(fleet.SimulateCrash().ok());
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(recovered_or.value().manifest().assignment,
            (std::vector<uint32_t>{3, 1, 4}));
  for (uint32_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(recovered_or.value().tables()[p].ContentEquals(reference[p]))
        << "partition " << p;
  }
}

TEST_F(FleetTest, CutRecoverySurvivesTheMigrationEpochBoundary) {
  // The committed cut manifest is deliberately NOT retired by a
  // migration: the destination bootstrap IS the migrated partition's
  // image at the cut, so Fleet::RecoverToCut must land the whole fleet at
  // exactly the cut tick on the NEW topology.
  auto fleet_or = Fleet::Create(dir_, Config(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  std::vector<StateTable> reference;
  RunTicks(&fleet, 2, &reference);
  auto cut_or = fleet.RequestConsistentCut();
  ASSERT_TRUE(cut_or.ok());
  const uint64_t cut_tick = cut_or.value();
  RunTicks(&fleet, cut_tick + 1 - fleet.current_tick(), &reference);
  std::vector<StateTable> reference_at_cut = SnapshotTables(reference);
  ASSERT_TRUE(fleet.CommitConsistentCut().ok());
  ASSERT_TRUE(fleet.MigratePartition(0, 2).ok());
  RunTicks(&fleet, 5, &reference);  // ticks the cut restore discards
  ASSERT_TRUE(fleet.SimulateCrash().ok());

  auto recovered_or = Fleet::RecoverToCut(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  RecoveredFleet& recovered = recovered_or.value();
  EXPECT_TRUE(recovered.at_cut());
  EXPECT_EQ(recovered.result().cut_tick, cut_tick);
  EXPECT_EQ(recovered.manifest().epoch, 1u);
  EXPECT_EQ(recovered.resume_tick(), cut_tick + 1);
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(recovered.tables()[p].ContentEquals(reference_at_cut[p]))
        << "partition " << p;
  }
  // And the cut landing resumes into a live fleet on the new topology.
  auto resumed_or = recovered.Resume();
  ASSERT_TRUE(resumed_or.ok()) << resumed_or.status().ToString();
  EXPECT_EQ(resumed_or.value()->epoch(), 1u);
  EXPECT_EQ(resumed_or.value()->current_tick(), cut_tick + 1);
  ASSERT_TRUE(resumed_or.value()->Shutdown().ok());
}

// ---- The acceptance sweep: crash at EVERY step across a migration ----
//
// Scripted timeline (K=2, partition 1 migrates from slot 1 to slot 2):
//   steps 1..7   : fleet ticks 0..6 (the consistent cut is requested
//                  after tick 3 and lands on tick 6, the last pre-move
//                  tick)
//   step 8       : CommitConsistentCut + MigratePartition(1, 2)
//   steps 9..13  : fleet ticks 7..11 on the migrated topology
// A crash after step s must recover: the correct epoch (0 before the
// migration committed, 1 after), the correct assignment, and per-partition
// state exactly equal to the deterministic reference -- on BOTH sides of
// the epoch boundary.

/// The parameter is the step the fleet crashes after.
class FleetMigrationCrashSweepTest
    : public FleetTest,
      public ::testing::WithParamInterface<int> {};

TEST_P(FleetMigrationCrashSweepTest, RecoversTopologyAndExactState) {
  const int crash_after_step = GetParam();
  constexpr int kMigrationStep = 8;
  constexpr uint64_t kCutRequestAfterTicks = 4;  // cut lead 2 -> cut tick 6
  const auto config = Config(2);

  std::vector<StateTable> reference;
  uint64_t cut_tick = 0;
  bool migrated = false;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    for (int step = 1; step <= crash_after_step; ++step) {
      if (step == kMigrationStep) {
        ASSERT_TRUE(fleet.CommitConsistentCut().ok());
        auto status = fleet.MigratePartition(1, 2);
        ASSERT_TRUE(status.ok()) << status.ToString();
        migrated = true;
        continue;
      }
      RunTicks(&fleet, 1, &reference);
      if (fleet.current_tick() == kCutRequestAfterTicks) {
        auto cut_or = fleet.RequestConsistentCut();
        ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
        cut_tick = cut_or.value();
        ASSERT_EQ(cut_tick, 6u);
      }
    }
    ASSERT_TRUE(fleet.SimulateCrash().ok());
  }
  const uint64_t expected_ticks =
      crash_after_step < kMigrationStep
          ? static_cast<uint64_t>(crash_after_step)
          : static_cast<uint64_t>(crash_after_step - 1);

  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  RecoveredFleet& recovered = recovered_or.value();
  EXPECT_EQ(recovered.manifest().epoch, migrated ? 1u : 0u);
  EXPECT_EQ(recovered.manifest().assignment,
            migrated ? (std::vector<uint32_t>{0, 2})
                     : (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(recovered.result().fleet.min_recovered_ticks, expected_ticks);
  EXPECT_EQ(recovered.result().fleet.max_recovered_ticks, expected_ticks);
  ASSERT_EQ(recovered.tables().size(), 2u);
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(recovered.tables()[p].ContentEquals(reference[p]))
        << "partition " << p << " after crash step " << crash_after_step;
  }
  if (migrated) {
    // Both sides of the boundary stay reachable: the committed cut is
    // still exactly reproducible on the NEW topology.
    auto at_cut_or = Fleet::RecoverToCut(dir_);
    ASSERT_TRUE(at_cut_or.ok()) << at_cut_or.status().ToString();
    EXPECT_TRUE(at_cut_or.value().at_cut());
    EXPECT_EQ(at_cut_or.value().result().cut_tick, cut_tick);
  }
}

INSTANTIATE_TEST_SUITE_P(EveryStep, FleetMigrationCrashSweepTest,
                         ::testing::Range(1, 14), [](const auto& info) {
                           return "step" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tickpoint
