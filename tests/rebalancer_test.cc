// Load-driven auto-rebalancing (rebalancer.h): the policy that watches
// per-partition dirty-mark rates and moves a hot partition to a freshly
// spawned shard slot -- optionally on a different disk -- through the
// committed-cut migration protocol, all from Fleet::EndTick. These tests
// pin the detector's determinism (lockstep ticks script the exact decision
// boundary), every anti-oscillation guard (hysteresis, warmup, cooldown,
// min-marks floor, never-re-migrate), the stand-down around user cuts,
// the v3 mount-root landing, the scheduler EWMA reset on migration, the
// failover-after-rebalance replica re-anchor, and -- the acceptance
// sweep -- a crash at EVERY step of the automated decide -> cut ->
// commit+migrate timeline recovering to a digest-equal fleet.
#include "engine/rebalancer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "engine/fleet.h"
#include "engine/mutator.h"
#include "engine/paths.h"
#include "engine/recovery.h"
#include "engine/replica_buffer.h"
#include "engine/sharded_engine.h"
#include "fleet_test_util.h"

namespace tickpoint {
namespace {

StateLayout ShardLayout() { return StateLayout::Small(384, 10); }

// The skewed battle: the hot partition writes 10x what the others do, so
// its smoothed mark rate clears any imbalance_ratio below 10.
constexpr uint64_t kHotUpdates = 200;
constexpr uint64_t kColdUpdates = 20;

class RebalancerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_rebal_" + name))
               .string();
    mount_ = dir_ + "_mount";
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(mount_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(mount_);
  }

  ShardedEngineConfig Config(uint32_t num_shards) {
    ShardedEngineConfig config;
    config.shard.layout = ShardLayout();
    config.shard.algorithm = AlgorithmKind::kCopyOnUpdate;
    config.shard.fsync = false;  // simulated crashes: page cache is durable
    config.shard.full_flush_period = 4;
    config.num_shards = num_shards;
    config.checkpoint_period_ticks = 5;
    return config;
  }

  /// A fast-firing detector for tests: decision at the earliest boundary
  /// the guards allow (warmup 2 + hysteresis 2), one migration max.
  RebalancePolicy TestPolicy() {
    RebalancePolicy policy;
    policy.imbalance_ratio = 2.0;
    policy.hysteresis_ticks = 2;
    policy.warmup_ticks = 2;
    policy.cooldown_ticks = 4;
    policy.min_marks_per_tick = 1.0;
    policy.max_migrations = 1;
    return policy;
  }

  /// Drives `ticks` fleet ticks of the deterministic workload with
  /// partition `hot` receiving kHotUpdates updates per tick and every
  /// other partition kColdUpdates, mirroring into `reference`. `hot` out
  /// of range (e.g. UINT32_MAX) makes the load uniform at kColdUpdates.
  void RunSkewedTicks(Fleet* fleet, uint64_t ticks,
                      std::vector<StateTable>* reference, uint32_t hot) {
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
        const uint64_t updates = p == hot ? kHotUpdates : kColdUpdates;
        for (uint64_t i = 0; i < updates; ++i) {
          const uint32_t cell = WorkloadCell(p, tick, i, num_cells);
          const int32_t value = WorkloadValue(tick, cell, i);
          fleet->ApplyUpdate(p, cell, value);
          (*reference)[p].WriteCell(cell, value);
        }
      }
      ASSERT_TRUE(fleet->EndTick().ok());
    }
  }

  /// RunSkewedTicks in lockstep: each tick waits for the runners to
  /// apply its batch, so the detector, which reads one boundary behind the
  /// facade, sees every boundary move and the decide -> cut -> migrate
  /// timeline is scripted to the tick (an unpaced loop can outrun the
  /// runners indefinitely, and the detector -- correctly -- learns
  /// nothing from such boundaries). Under TestPolicy the first window
  /// closes at boundary 2, the decision fires at boundary 5 (warmup 2 +
  /// hysteresis 2, one boundary behind), the cut lands at 5 + cut_lead(2)
  /// = 7, and the migration commits at boundary 8.
  void RunLockstepTicks(Fleet* fleet, uint64_t ticks,
                        std::vector<StateTable>* reference, uint32_t hot) {
    for (uint64_t t = 0; t < ticks; ++t) {
      RunSkewedTicks(fleet, 1, reference, hot);
      ASSERT_TRUE(fleet->WaitForIdle().ok());
    }
  }

  /// Runs lockstep skewed ticks until the rebalancer commits its first
  /// migration, bounded by `max_ticks`.
  void RunUntilMigrated(Fleet* fleet, std::vector<StateTable>* reference,
                        uint32_t hot, uint64_t max_ticks = 60) {
    for (uint64_t t = 0;
         t < max_ticks && fleet->rebalancer()->migrations() == 0; ++t) {
      RunLockstepTicks(fleet, 1, reference, hot);
    }
    ASSERT_EQ(fleet->rebalancer()->migrations(), 1u)
        << "skewed battle never triggered a migration in " << max_ticks
        << " ticks";
  }

  std::string dir_;
  std::string mount_;
};

TEST_F(RebalancerTest, EnableAutoRebalanceValidatesThePolicy) {
  auto fleet_or = Fleet::Create(dir_, Config(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  EXPECT_EQ(fleet.rebalancer(), nullptr);
  {
    RebalancePolicy policy = TestPolicy();
    policy.imbalance_ratio = 1.0;  // "hotter than 1x the mean" is everything
    EXPECT_EQ(fleet.EnableAutoRebalance(policy).code(),
              StatusCode::kInvalidArgument);
  }
  {
    RebalancePolicy policy = TestPolicy();
    policy.hysteresis_ticks = 0;  // no streak: one noisy sample migrates
    EXPECT_EQ(fleet.EnableAutoRebalance(policy).code(),
              StatusCode::kInvalidArgument);
  }
  {
    RebalancePolicy policy = TestPolicy();
    policy.ewma_alpha = 1.5;
    EXPECT_EQ(fleet.EnableAutoRebalance(policy).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(fleet.rebalancer(), nullptr)
      << "a refused policy must not install a rebalancer";
  ASSERT_TRUE(fleet.EnableAutoRebalance(TestPolicy()).ok());
  ASSERT_NE(fleet.rebalancer(), nullptr);
  EXPECT_EQ(fleet.rebalancer()->migrations(), 0u);
  fleet.DisableAutoRebalance();
  EXPECT_EQ(fleet.rebalancer(), nullptr);
  ASSERT_TRUE(fleet_or.value()->Shutdown().ok());
}

TEST_F(RebalancerTest, LockstepSkewMigratesAtTheEarliestLegalBoundary) {
  // Lockstep ticks are fully deterministic: the mark deltas at each read
  // boundary are exactly the tick's update counts, so the whole decide ->
  // cut -> migrate timeline is scripted. warmup 2 + hysteresis 2 => the
  // decision fires at boundary 5 (the earliest the guards allow --
  // "within the hysteresis window" -- with the detector one boundary
  // behind the facade), the cut lands at 5 + cut_lead(2) = 7, and the
  // migration commits at boundary 8.
  auto fleet_or = Fleet::Create(dir_, Config(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  const RebalancePolicy policy = TestPolicy();
  ASSERT_TRUE(fleet.EnableAutoRebalance(policy).ok());

  std::vector<StateTable> reference;
  RunLockstepTicks(&fleet, 6, &reference, /*hot=*/1);
  EXPECT_TRUE(fleet.rebalancer()->migration_pending())
      << "decision boundary 5 should have armed the rebalancer's cut";
  EXPECT_EQ(fleet.engine().pending_cut_tick(), 7u);
  EXPECT_GE(fleet.rebalancer()->RatePerTick(1),
            static_cast<double>(kHotUpdates) - 1.0);

  RunLockstepTicks(&fleet, 2, &reference, /*hot=*/1);
  // The state at the cut (end of tick 7) is exactly the reference now.
  std::vector<StateTable> reference_at_cut = SnapshotTables(reference);
  ASSERT_EQ(fleet.rebalancer()->migrations(), 1u);
  EXPECT_FALSE(fleet.rebalancer()->migration_pending());
  const RebalanceEvent& event = fleet.rebalancer()->last_event();
  EXPECT_EQ(event.partition, 1u);
  EXPECT_EQ(event.to_slot, 2u) << "the target must be a freshly spawned slot";
  EXPECT_EQ(event.decided_tick,
            policy.warmup_ticks + policy.hysteresis_ticks + 1);
  EXPECT_EQ(event.cut_tick, 7u);
  EXPECT_GT(event.hot_ratio, policy.imbalance_ratio);
  EXPECT_EQ(fleet.epoch(), 1u);
  EXPECT_EQ(fleet.engine().SlotOfPartition(1), 2u);
  EXPECT_EQ(fleet.last_migration_report().first_tick_on_new_shard, 8u);

  // The fleet keeps playing across the automated boundary; a crash then
  // recovers the migrated topology with exact state, and the committed
  // cut stays reproducible on the new topology.
  RunLockstepTicks(&fleet, 5, &reference, /*hot=*/1);
  ASSERT_TRUE(fleet.SimulateCrash().ok());
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(recovered_or.value().manifest().epoch, 1u);
  EXPECT_EQ(recovered_or.value().manifest().assignment,
            (std::vector<uint32_t>{0, 2}));
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(recovered_or.value().tables()[p].ContentEquals(reference[p]))
        << "partition " << p;
  }
  auto at_cut_or = Fleet::RecoverToCut(dir_);
  ASSERT_TRUE(at_cut_or.ok()) << at_cut_or.status().ToString();
  EXPECT_TRUE(at_cut_or.value().at_cut());
  EXPECT_EQ(at_cut_or.value().result().cut_tick, 7u);
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(
        at_cut_or.value().tables()[p].ContentEquals(reference_at_cut[p]))
        << "partition " << p << " at the cut";
  }
}

TEST_F(RebalancerTest, UniformLoadNeverTriggersARebalance) {
  auto fleet_or = Fleet::Create(dir_, Config(3));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  ASSERT_TRUE(fleet.EnableAutoRebalance(TestPolicy()).ok());
  std::vector<StateTable> reference;
  RunSkewedTicks(&fleet, 20, &reference, /*hot=*/UINT32_MAX);  // uniform
  EXPECT_EQ(fleet.rebalancer()->migrations(), 0u);
  EXPECT_FALSE(fleet.rebalancer()->migration_pending());
  EXPECT_EQ(fleet.epoch(), 0u);
  ASSERT_TRUE(fleet.Shutdown().ok());
}

TEST_F(RebalancerTest, AnIdleFleetNeverLooksImbalanced) {
  // A 4-vs-0 split is an infinite ratio, but 4 marks per tick is noise,
  // not load: the min_marks_per_tick floor must keep the fleet in place.
  auto fleet_or = Fleet::Create(dir_, Config(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  RebalancePolicy policy = TestPolicy();
  policy.min_marks_per_tick = 50.0;
  ASSERT_TRUE(fleet.EnableAutoRebalance(policy).ok());
  std::vector<StateTable> reference;
  for (uint64_t t = 0; t < 12; ++t) {
    fleet.BeginTick();
    for (uint32_t i = 0; i < 4; ++i) {
      fleet.ApplyUpdate(0, i, static_cast<int32_t>(t));
    }
    ASSERT_TRUE(fleet.EndTick().ok());
    ASSERT_TRUE(fleet.WaitForIdle().ok());  // lockstep: every boundary read
  }
  EXPECT_EQ(fleet.rebalancer()->migrations(), 0u);
  EXPECT_FALSE(fleet.rebalancer()->migration_pending());
  ASSERT_TRUE(fleet.Shutdown().ok());
}

TEST_F(RebalancerTest, StandsDownWhileAUserCutIsInFlight) {
  // A user-armed cut freezes the detector (no second cut may be armed);
  // once the user commits, the still-warm streaks fire on the next legal
  // boundary and the automated migration proceeds.
  auto fleet_or = Fleet::Create(dir_, Config(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  ASSERT_TRUE(fleet.EnableAutoRebalance(TestPolicy()).ok());
  std::vector<StateTable> reference;
  RunLockstepTicks(&fleet, 4, &reference, /*hot=*/1);  // one boundary short
  auto cut_or = fleet.RequestConsistentCut();
  ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
  while (fleet.current_tick() <= cut_or.value()) {
    RunLockstepTicks(&fleet, 1, &reference, /*hot=*/1);
    EXPECT_FALSE(fleet.rebalancer()->migration_pending())
        << "the detector must stand down while the user's cut is armed";
  }
  ASSERT_TRUE(fleet.CommitConsistentCut().ok());
  EXPECT_EQ(fleet.rebalancer()->migrations(), 0u);
  RunLockstepTicks(&fleet, 6, &reference, /*hot=*/1);
  EXPECT_EQ(fleet.rebalancer()->migrations(), 1u);
  EXPECT_EQ(fleet.engine().SlotOfPartition(1), 2u);
  RunLockstepTicks(&fleet, 3, &reference, /*hot=*/1);
  ASSERT_TRUE(fleet.SimulateCrash().ok());
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(recovered_or.value().tables()[p].ContentEquals(reference[p]))
        << "partition " << p;
  }
}

TEST_F(RebalancerTest, NeverRemigratesAHotPartition) {
  // Even with no migration cap and a zero cooldown, a partition moves at
  // most ONCE per rebalancer lifetime -- the strongest anti-thrash
  // guarantee. The skew stays on partition 1 the whole run; after its
  // move the fleet must simply live with the imbalance.
  auto fleet_or = Fleet::Create(dir_, Config(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  RebalancePolicy policy = TestPolicy();
  policy.max_migrations = 0;  // unlimited
  policy.cooldown_ticks = 0;
  ASSERT_TRUE(fleet.EnableAutoRebalance(policy).ok());
  std::vector<StateTable> reference;
  RunLockstepTicks(&fleet, 30, &reference, /*hot=*/1);
  EXPECT_EQ(fleet.rebalancer()->migrations(), 1u);
  EXPECT_EQ(fleet.epoch(), 1u);
  EXPECT_EQ(fleet.rebalancer()->HotStreak(1), 0u)
      << "a migrated partition must never re-enter the hot streak";
  ASSERT_TRUE(fleet.Shutdown().ok());
}

TEST_F(RebalancerTest, SpawnMountRootLandsTheMigrationOnAnotherDisk) {
  // The v3 manifest end-to-end: the automated migration's destination
  // directory lives under the policy's mount root, the manifest records
  // the override durably, and BOTH recovery paths plus a full reopen
  // resolve the relocated directory from the root alone.
  auto fleet_or = Fleet::Create(dir_, Config(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  RebalancePolicy policy = TestPolicy();
  policy.spawn_mount_root = mount_;
  ASSERT_TRUE(fleet.EnableAutoRebalance(policy).ok());
  std::vector<StateTable> reference;
  RunLockstepTicks(&fleet, 8, &reference, /*hot=*/1);
  ASSERT_EQ(fleet.rebalancer()->migrations(), 1u);
  EXPECT_EQ(fleet.manifest().MountRootOf(1), mount_);
  EXPECT_EQ(fleet.manifest().MountRootOf(0), "");
  EXPECT_TRUE(std::filesystem::is_directory(paths::ShardDir(mount_, 2)))
      << "the spawned slot must live under the mount root";
  EXPECT_FALSE(std::filesystem::exists(paths::ShardDir(dir_, 1)))
      << "the source slot under the fleet root must be retired";
  RunLockstepTicks(&fleet, 4, &reference, /*hot=*/1);
  ASSERT_TRUE(fleet.Shutdown().ok());

  // Reopen from the fleet root ALONE: the manifest's mount entry is the
  // only pointer to the other disk.
  auto reopened_or = Fleet::Open(dir_);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  Fleet& reopened = *reopened_or.value();
  EXPECT_EQ(reopened.epoch(), 1u);
  EXPECT_EQ(reopened.manifest().MountRootOf(1), mount_);
  ASSERT_TRUE(reopened.WaitForIdle().ok());
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(reopened.engine().shard(p).state().ContentEquals(reference[p]))
        << "partition " << p;
  }
  RunLockstepTicks(&reopened, 3, &reference, /*hot=*/1);
  ASSERT_TRUE(reopened.SimulateCrash().ok());
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(recovered_or.value().manifest().assignment,
            (std::vector<uint32_t>{0, 2}));
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(recovered_or.value().tables()[p].ContentEquals(reference[p]))
        << "partition " << p;
  }
}

TEST_F(RebalancerTest, MigrationResetsTheSchedulerEwmaState) {
  // Regression (adaptive stagger x migration): MigratePartition used to
  // leave the scheduler's learned write-time EWMAs -- measured on the OLD
  // slot's disk -- attached to the migrated partition, and leaked the
  // disk-budget reservation of any in-flight checkpoint the swap
  // swallowed. The reset must zero the migrated partition's estimates
  // only; the sibling keeps its learning, and the new slot re-learns.
  auto config = Config(2);
  config.adaptive = true;
  auto fleet_or = Fleet::Create(dir_, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  std::vector<StateTable> reference;
  const StaggerScheduler& scheduler = fleet.engine().scheduler();
  // The EWMAs learn from completed checkpoints, and how many a fixed tick
  // count completes depends on writer timing: tick until the partitions
  // have learned, bounded far above what an unslowed run needs.
  constexpr uint64_t kMaxTicks = 400;
  const auto run_until_learned = [&](std::vector<uint32_t> partitions) {
    RunLockstepTicks(&fleet, 12, &reference, /*hot=*/1);
    for (const uint32_t p : partitions) {
      while (scheduler.EwmaWriteSeconds(p) == 0.0 &&
             fleet.current_tick() < kMaxTicks) {
        RunLockstepTicks(&fleet, 1, &reference, /*hot=*/1);
      }
    }
  };
  run_until_learned({0, 1});
  ASSERT_GT(scheduler.EwmaWriteSeconds(0), 0.0);
  ASSERT_GT(scheduler.EwmaWriteSeconds(1), 0.0);

  auto cut_or = fleet.RequestConsistentCut();
  ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
  while (fleet.current_tick() <= cut_or.value()) {
    RunLockstepTicks(&fleet, 1, &reference, /*hot=*/1);
  }
  ASSERT_TRUE(fleet.CommitConsistentCut().ok());
  ASSERT_TRUE(fleet.MigratePartition(1, 2).ok());
  EXPECT_EQ(scheduler.EwmaWriteSeconds(1), 0.0)
      << "the migrated partition's write-time estimate describes the old "
         "slot and must be forgotten";
  EXPECT_EQ(scheduler.EwmaTicks(1), 0.0);
  // The sibling checkpoints again at the cut itself, so its estimate
  // moves -- but the reset must not have zeroed it.
  EXPECT_GT(scheduler.EwmaWriteSeconds(0), 0.0)
      << "the sibling's learning must survive the neighbor's migration";
  EXPECT_EQ(scheduler.inflight(), 0u)
      << "a reservation leak: the swallowed in-flight checkpoint's budget "
         "slot was never released";

  // The fresh slot re-learns from its own measurements.
  run_until_learned({1});
  EXPECT_GT(scheduler.EwmaWriteSeconds(1), 0.0);
  ASSERT_TRUE(fleet.SimulateCrash().ok());
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(recovered_or.value().tables()[p].ContentEquals(reference[p]))
        << "partition " << p;
  }
}

TEST_F(RebalancerTest, FailoverAfterAutoRebalanceRebuildsFromPeerMemory) {
  // The replica topology across an AUTOMATED migration: partition 0's own
  // replica (hosted on partition 1's runner) is re-anchored, and the
  // replica partition 0's runner hosted for partition 2 is re-hosted on
  // the migrated runner. Both subsequent failovers must take the
  // peer-memory path and land digest-equal to the mirrored reference.
  auto config = Config(3);
  config.replicate = true;
  auto fleet_or = Fleet::Create(dir_, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  ASSERT_TRUE(fleet.EnableAutoRebalance(TestPolicy()).ok());
  std::vector<StateTable> reference;
  RunUntilMigrated(&fleet, &reference, /*hot=*/0);
  EXPECT_EQ(fleet.engine().SlotOfPartition(0), 3u);
  EXPECT_EQ(fleet.epoch(), 1u);
  RunSkewedTicks(&fleet, 3, &reference, /*hot=*/0);

  // The migrated partition itself dies: its replica lives on partition
  // 1's runner and was re-anchored at the move.
  ASSERT_TRUE(fleet.SimulateShardCrash(0).ok());
  ASSERT_TRUE(fleet.FailoverShard(0).ok());
  EXPECT_TRUE(fleet.last_failover_report().used_peer_memory)
      << "partition 0's replica must survive its own migration";
  ASSERT_TRUE(fleet.WaitForIdle().ok());
  EXPECT_TRUE(fleet.engine().shard(0).state().ContentEquals(reference[0]));

  RunSkewedTicks(&fleet, 2, &reference, /*hot=*/0);
  // A partition whose replica was HOSTED by the migrated runner dies: the
  // ring default peers partition 2 on partition 0, whose runner was
  // replaced wholesale by the migration.
  ASSERT_EQ(fleet.manifest().config.replica_peer[2], 0u);
  ASSERT_TRUE(fleet.SimulateShardCrash(2).ok());
  ASSERT_TRUE(fleet.FailoverShard(2).ok());
  EXPECT_TRUE(fleet.last_failover_report().used_peer_memory)
      << "replicas hosted by the migrated runner must be re-hosted";
  ASSERT_TRUE(fleet.WaitForIdle().ok());
  EXPECT_TRUE(fleet.engine().shard(2).state().ContentEquals(reference[2]));

  // And the whole fleet still crash-recovers digest-equal under epoch 1.
  RunSkewedTicks(&fleet, 3, &reference, /*hot=*/0);
  ASSERT_TRUE(fleet.SimulateCrash().ok());
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(recovered_or.value().manifest().epoch, 1u);
  for (uint32_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(recovered_or.value().tables()[p].ContentEquals(reference[p]))
        << "partition " << p;
  }
}

// ---- The acceptance sweep: crash at EVERY step of the automated path ----
//
// The rebalancer's whole timeline -- observe, decide (cut request), wait
// for the cut tick, commit + migrate + v3 manifest commit, keep playing --
// advances one step per fleet tick. Crashing after EVERY prefix must
// recover a fleet whose topology equals what the live fleet reported just
// before the crash, with per-partition state exactly equal to the
// deterministic reference. Lockstep cases additionally pin the scripted
// timeline (migration committed exactly at boundary 8); unpaced cases
// cover the racy facade/runner interleavings.

struct RebalanceCrashCase {
  int crash_after_tick;
  bool lockstep;
};

class RebalanceCrashSweepTest
    : public RebalancerTest,
      public ::testing::WithParamInterface<RebalanceCrashCase> {};

TEST_P(RebalanceCrashSweepTest, RecoversTopologyAndExactState) {
  const RebalanceCrashCase param = GetParam();
  const auto config = Config(2);
  std::vector<StateTable> reference;
  uint64_t pre_epoch = 0;
  std::vector<uint32_t> pre_assignment;
  uint32_t pre_migrations = 0;
  uint64_t pre_cut_tick = 0;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    ASSERT_TRUE(fleet.EnableAutoRebalance(TestPolicy()).ok());
    const uint64_t ticks = static_cast<uint64_t>(param.crash_after_tick);
    if (param.lockstep) {
      RunLockstepTicks(&fleet, ticks, &reference, /*hot=*/1);
      // The lockstep timeline is scripted: decision at boundary 5, cut at
      // tick 7, commit+migrate at boundary 8.
      EXPECT_EQ(fleet.rebalancer()->migrations(),
                param.crash_after_tick >= 8 ? 1u : 0u);
    } else {
      RunSkewedTicks(&fleet, ticks, &reference, /*hot=*/1);
    }
    pre_epoch = fleet.epoch();
    pre_assignment = fleet.manifest().assignment;
    pre_migrations = fleet.rebalancer()->migrations();
    pre_cut_tick = fleet.rebalancer()->last_event().cut_tick;
    ASSERT_TRUE(fleet.SimulateCrash().ok());
  }

  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  RecoveredFleet& recovered = recovered_or.value();
  EXPECT_EQ(recovered.manifest().epoch, pre_epoch);
  EXPECT_EQ(recovered.manifest().assignment, pre_assignment);
  EXPECT_EQ(recovered.result().fleet.min_recovered_ticks,
            static_cast<uint64_t>(param.crash_after_tick));
  ASSERT_EQ(recovered.tables().size(), 2u);
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(recovered.tables()[p].ContentEquals(reference[p]))
        << "partition " << p << " after a crash at tick "
        << param.crash_after_tick;
  }
  if (pre_migrations > 0) {
    // The automated migration's cut stays reproducible on the new
    // topology, exactly like a manual migration's.
    auto at_cut_or = Fleet::RecoverToCut(dir_);
    ASSERT_TRUE(at_cut_or.ok()) << at_cut_or.status().ToString();
    EXPECT_TRUE(at_cut_or.value().at_cut());
    EXPECT_EQ(at_cut_or.value().result().cut_tick, pre_cut_tick);
  }
}

std::vector<RebalanceCrashCase> AllRebalanceCrashCases() {
  std::vector<RebalanceCrashCase> cases;
  // Lockstep: the deterministic scripted timeline, every step
  // (observe-only, streak-building, cut armed, cut tick, commit+migrate,
  // post-migration play).
  for (int tick = 1; tick <= 10; ++tick) {
    cases.push_back({tick, /*lockstep=*/true});
  }
  // Unpaced at the boundary-adjacent steps (detection timing shifts with
  // runner lag; the sweep's self-consistency checks hold at any step).
  for (int tick : {4, 6, 7, 8, 10}) {
    cases.push_back({tick, /*lockstep=*/false});
  }
  return cases;
}

std::string RebalanceCrashCaseName(
    const ::testing::TestParamInfo<RebalanceCrashCase>& info) {
  return "tick" + std::to_string(info.param.crash_after_tick) +
         (info.param.lockstep ? "" : "_unpaced");
}

INSTANTIATE_TEST_SUITE_P(EveryStep, RebalanceCrashSweepTest,
                         ::testing::ValuesIn(AllRebalanceCrashCases()),
                         RebalanceCrashCaseName);

// The other half of the sweep: the crash is pinned AFTER the migration
// committed (unpaced detection timing varies, so the sweep above cannot
// guarantee post-migration coverage there -- this one runs until the
// migration lands, then crashes 0..3 ticks later). The parameter is the
// number of unpaced ticks between the migration and the crash.
class RebalancePostMigrationCrashTest
    : public RebalancerTest,
      public ::testing::WithParamInterface<uint64_t> {};

TEST_P(RebalancePostMigrationCrashTest, RecoversTheMigratedTopology) {
  const uint64_t extra_ticks = GetParam();
  const auto config = Config(2);
  std::vector<StateTable> reference;
  uint64_t crash_tick = 0;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    ASSERT_TRUE(fleet.EnableAutoRebalance(TestPolicy()).ok());
    RunUntilMigrated(&fleet, &reference, /*hot=*/1);
    RunSkewedTicks(&fleet, extra_ticks, &reference, /*hot=*/1);
    crash_tick = fleet.current_tick();
    ASSERT_TRUE(fleet.SimulateCrash().ok());
  }
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(recovered_or.value().manifest().epoch, 1u);
  EXPECT_EQ(recovered_or.value().manifest().assignment,
            (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(recovered_or.value().result().fleet.min_recovered_ticks,
            crash_tick);
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(recovered_or.value().tables()[p].ContentEquals(reference[p]))
        << "partition " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(AfterCommit, RebalancePostMigrationCrashTest,
                         ::testing::Values(0u, 1u, 2u, 3u),
                         [](const auto& info) {
                           return "plus" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tickpoint
