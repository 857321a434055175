// Sharded-engine tests: the stagger schedule itself, and the central
// crash-recovery property lifted to a fleet -- for K shards, any algorithm,
// and ANY crash tick, Fleet::Recover() rebuilds every shard's partition
// exactly, even though staggering leaves the shards at different checkpoint
// generations when the crash lands. Fleets are built through Fleet::Create
// (the only construction path) and exercised through Fleet::engine() where
// a test needs per-shard inspection.
#include "engine/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/consistent_cut.h"
#include "engine/fleet.h"
#include "engine/mutator.h"
#include "engine/recovery.h"
#include "engine/stagger_scheduler.h"
#include "fleet_test_util.h"

namespace tickpoint {
namespace {

StateLayout ShardLayout() { return StateLayout::Small(512, 10); }  // 40 objects

constexpr uint64_t kUpdatesPerTick = 150;

// ---- StaggerScheduler ----

TEST(StaggerSchedulerTest, StaggeredOffsetsPartitionThePeriod) {
  StaggerScheduler scheduler(StaggerConfig{4, 8, /*staggered=*/true});
  EXPECT_EQ(scheduler.OffsetTicks(0), 0u);
  EXPECT_EQ(scheduler.OffsetTicks(1), 2u);
  EXPECT_EQ(scheduler.OffsetTicks(2), 4u);
  EXPECT_EQ(scheduler.OffsetTicks(3), 6u);
}

TEST(StaggerSchedulerTest, SynchronizedModeStartsEveryShardTogether) {
  StaggerScheduler scheduler(StaggerConfig{4, 8, /*staggered=*/false});
  for (uint32_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(scheduler.OffsetTicks(shard), 0u);
    EXPECT_TRUE(scheduler.ShouldCheckpoint(shard, 0));
    EXPECT_TRUE(scheduler.ShouldCheckpoint(shard, 8));
    EXPECT_FALSE(scheduler.ShouldCheckpoint(shard, 5));
  }
}

TEST(StaggerSchedulerTest, AtMostOneShardStartsPerTick) {
  StaggerScheduler scheduler(StaggerConfig{4, 8, /*staggered=*/true});
  for (uint64_t tick = 0; tick < 64; ++tick) {
    int starts = 0;
    for (uint32_t shard = 0; shard < 4; ++shard) {
      starts += scheduler.ShouldCheckpoint(shard, tick) ? 1 : 0;
    }
    EXPECT_LE(starts, 1) << "tick " << tick;
  }
}

TEST(StaggerSchedulerTest, EveryShardCheckpointsOncePerPeriod) {
  StaggerScheduler scheduler(StaggerConfig{3, 9, /*staggered=*/true});
  for (uint32_t shard = 0; shard < 3; ++shard) {
    int starts = 0;
    for (uint64_t tick = 0; tick < 90; ++tick) {
      starts += scheduler.ShouldCheckpoint(shard, tick) ? 1 : 0;
    }
    EXPECT_EQ(starts, 10) << "shard " << shard;
  }
}

TEST(StaggerSchedulerTest, NextCheckpointTickIsTheSchedule) {
  StaggerScheduler scheduler(StaggerConfig{4, 8, /*staggered=*/true});
  EXPECT_EQ(scheduler.NextCheckpointTick(1, 0), 2u);
  EXPECT_EQ(scheduler.NextCheckpointTick(1, 3), 10u);
  EXPECT_EQ(scheduler.NextCheckpointTick(0, 1), 8u);
  for (uint32_t shard = 0; shard < 4; ++shard) {
    for (uint64_t tick = 0; tick < 40; ++tick) {
      const uint64_t next = scheduler.NextCheckpointTick(shard, tick);
      EXPECT_GT(next, tick);
      EXPECT_TRUE(scheduler.ShouldCheckpoint(shard, next));
    }
  }
}

TEST(StaggerSchedulerTest, NextCheckpointTickIsStrictlyAfterTheQueryTick) {
  // The boundary that used to be wrong: querying AT a scheduled start must
  // answer the following period's start ("next"), not echo "now" back --
  // ShouldCheckpoint(shard, start) already covers "now".
  StaggerScheduler scheduler(StaggerConfig{4, 8, /*staggered=*/true});
  for (uint32_t shard = 0; shard < 4; ++shard) {
    const uint64_t offset = scheduler.OffsetTicks(shard);
    for (uint64_t start = offset; start < offset + 40; start += 8) {
      ASSERT_TRUE(scheduler.ShouldCheckpoint(shard, start));
      EXPECT_EQ(scheduler.NextCheckpointTick(shard, start), start + 8)
          << "shard " << shard << " start " << start;
    }
  }
  // Before the first start, the first start is the next one.
  EXPECT_EQ(scheduler.NextCheckpointTick(1, 1), 2u);
  // Synchronized schedule: same rule at tick 0.
  StaggerScheduler synced(StaggerConfig{4, 8, /*staggered=*/false});
  EXPECT_EQ(synced.NextCheckpointTick(0, 0), 8u);
}

// ---- Adaptive stagger ----

// Deterministic disk model: every checkpoint occupies the disk for
// `duration` ticks after its start; completions are reported before the
// next tick's scheduling decisions, the same order ShardedEngine uses.
struct AdaptiveSimResult {
  uint32_t max_concurrent = 0;
  std::vector<int> starts_per_shard;
};

AdaptiveSimResult RunAdaptiveSim(StaggerScheduler* scheduler, uint32_t shards,
                                 uint64_t ticks, uint64_t duration) {
  AdaptiveSimResult result;
  result.starts_per_shard.assign(shards, 0);
  std::vector<uint64_t> busy_until(shards, 0);
  std::vector<bool> inflight(shards, false);
  uint32_t active = 0;
  for (uint64_t tick = 0; tick < ticks; ++tick) {
    for (uint32_t shard = 0; shard < shards; ++shard) {
      if (inflight[shard] && tick >= busy_until[shard]) {
        scheduler->ObserveCheckpointEnd(shard, tick, 0.001 * duration);
        inflight[shard] = false;
        --active;
      }
    }
    for (uint32_t shard = 0; shard < shards; ++shard) {
      if (scheduler->ShouldCheckpoint(shard, tick)) {
        EXPECT_FALSE(inflight[shard]);
        inflight[shard] = true;
        busy_until[shard] = tick + duration;
        ++active;
        ++result.starts_per_shard[shard];
        result.max_concurrent = std::max(result.max_concurrent, active);
      }
    }
  }
  return result;
}

TEST(StaggerSchedulerTest, AdaptiveNeverExceedsDiskBudget) {
  // Writes take 5 ticks but the fixed slot width is period/K = 2: the fixed
  // schedule would overlap up to 3 flushes; adaptive must keep it at 1.
  StaggerConfig config{4, 8, /*staggered=*/true};
  config.adaptive = true;
  config.disk_budget = 1;
  StaggerScheduler scheduler(config);
  const AdaptiveSimResult result =
      RunAdaptiveSim(&scheduler, 4, 400, /*duration=*/5);
  EXPECT_EQ(result.max_concurrent, 1u);
  EXPECT_LE(scheduler.max_concurrent_starts(), 1u);
  EXPECT_GT(scheduler.deferrals(), 0u);
  for (uint32_t shard = 0; shard < 4; ++shard) {
    // Oversubscribed disk: shards checkpoint less often than the period,
    // but none starves.
    EXPECT_GE(result.starts_per_shard[shard], 5) << "shard " << shard;
    EXPECT_GT(scheduler.EwmaTicks(shard), 0.0);
    EXPECT_GT(scheduler.EwmaWriteSeconds(shard), 0.0);
  }
}

TEST(StaggerSchedulerTest, AdaptiveHonorsLargerBudgets) {
  StaggerConfig config{6, 12, /*staggered=*/true};
  config.adaptive = true;
  config.disk_budget = 2;
  StaggerScheduler scheduler(config);
  const AdaptiveSimResult result =
      RunAdaptiveSim(&scheduler, 6, 600, /*duration=*/7);
  EXPECT_LE(result.max_concurrent, 2u);
  EXPECT_LE(scheduler.max_concurrent_starts(), 2u);
}

TEST(StaggerSchedulerTest, AdaptiveFifoGrantsSlotsInClaimAgeOrderAtBudgetOne) {
  // Direct coverage of the FIFO anti-starvation rule (previously only
  // implied by the per-shard start counts): on a disk oversubscribed to a
  // budget of 1 (writes of 7 ticks vs period/K slots of 2), a freed slot
  // must go to the OLDEST due claim -- in particular, shard 0 coming due
  // again must yield to shards 2 and 3, which have been waiting since
  // their first offsets. Without the yield, the per-tick index-order scan
  // hands every slot to shard 0 and starves the tail.
  StaggerConfig config{4, 8, /*staggered=*/true};
  config.adaptive = true;
  config.disk_budget = 1;
  StaggerScheduler scheduler(config);

  constexpr uint64_t kDuration = 7;
  std::vector<uint32_t> start_order;
  std::vector<uint64_t> start_ticks;
  std::vector<uint64_t> busy_until(4, 0);
  std::vector<bool> inflight(4, false);
  for (uint64_t tick = 0; tick < 48; ++tick) {
    for (uint32_t shard = 0; shard < 4; ++shard) {
      if (inflight[shard] && tick >= busy_until[shard]) {
        scheduler.ObserveCheckpointEnd(shard, tick, 0.001 * kDuration);
        inflight[shard] = false;
      }
    }
    for (uint32_t shard = 0; shard < 4; ++shard) {
      if (scheduler.ShouldCheckpoint(shard, tick)) {
        inflight[shard] = true;
        busy_until[shard] = tick + kDuration;
        start_order.push_back(shard);
        start_ticks.push_back(tick);
      }
    }
  }
  // One write drains every 7 ticks, and each grant goes to the oldest
  // claim: strict round-robin 0,1,2,3,0,1 -- shard 0's second claim (due
  // at tick 8) waits behind shards 2 and 3 until tick 28.
  ASSERT_GE(start_order.size(), 6u);
  const std::vector<uint32_t> expected_order = {0, 1, 2, 3, 0, 1};
  const std::vector<uint64_t> expected_ticks = {0, 7, 14, 21, 28, 35};
  for (size_t i = 0; i < expected_order.size(); ++i) {
    EXPECT_EQ(start_order[i], expected_order[i]) << "start " << i;
    EXPECT_EQ(start_ticks[i], expected_ticks[i]) << "start " << i;
  }
  EXPECT_EQ(scheduler.max_concurrent_starts(), 1u);
  EXPECT_GT(scheduler.deferrals(), 0u);
}

TEST(StaggerSchedulerTest, AdaptiveNarrowsBackToThePeriodWhenWritesAreFast) {
  // Writes fit the slot: the adaptive plan should settle on the fixed
  // cadence (one start per shard per period) with no deferrals.
  StaggerConfig config{4, 8, /*staggered=*/true};
  config.adaptive = true;
  config.disk_budget = 1;
  StaggerScheduler scheduler(config);
  const AdaptiveSimResult result =
      RunAdaptiveSim(&scheduler, 4, 400, /*duration=*/1);
  EXPECT_EQ(result.max_concurrent, 1u);
  EXPECT_EQ(scheduler.deferrals(), 0u);
  for (uint32_t shard = 0; shard < 4; ++shard) {
    // 400 ticks / period 8 = 50 slots; allow slack for the offset ramp-in.
    EXPECT_GE(result.starts_per_shard[shard], 48) << "shard " << shard;
  }
}

// ---- ShardedEngine fixture ----

class ShardedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_sharded_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ShardedEngineConfig Config(AlgorithmKind kind, uint32_t num_shards,
                             bool staggered = true) {
    ShardedEngineConfig config;
    config.shard.layout = ShardLayout();
    config.shard.algorithm = kind;
    config.shard.dir = dir_;
    config.shard.fsync = false;  // simulated crashes: page cache is durable
    config.shard.full_flush_period = 3;
    config.num_shards = num_shards;
    config.checkpoint_period_ticks = 5;
    config.staggered = staggered;
    return config;
  }

  /// Runs ticks [0, ticks) of the deterministic workload, mirroring every
  /// update into the per-shard reference tables.
  void RunTicks(ShardedEngine* engine, uint64_t ticks,
                std::vector<StateTable>* reference) {
    const uint64_t num_cells = ShardLayout().num_cells();
    if (reference->empty()) {
      for (uint32_t i = 0; i < engine->num_shards(); ++i) {
        reference->emplace_back(ShardLayout());
      }
    }
    for (uint64_t t = 0; t < ticks; ++t) {
      const uint64_t tick = engine->current_tick();
      engine->BeginTick();
      for (uint32_t shard = 0; shard < engine->num_shards(); ++shard) {
        for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
          const uint32_t cell = WorkloadCell(shard, tick, i, num_cells);
          const int32_t value = WorkloadValue(tick, cell, i);
          engine->ApplyUpdate(shard, cell, value);
          (*reference)[shard].WriteCell(cell, value);
        }
      }
      ASSERT_TRUE(engine->EndTick().ok());
    }
  }

  std::string dir_;
};

TEST_F(ShardedEngineTest, OpenValidatesItsConfig) {
  // Regression: num_shards == 0 and cut_lead_ticks == 0 must be caught at
  // fleet creation as InvalidArgument, never reach the
  // scheduler/coordinator unchecked (a zero cut lead would arm a cut at
  // the CURRENT tick and race the tick being assembled).
  {
    auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
    config.num_shards = 0;
    EXPECT_EQ(Fleet::Create(config.shard.dir, config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
    config.cut_lead_ticks = 0;
    EXPECT_EQ(Fleet::Create(config.shard.dir, config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
    config.checkpoint_period_ticks = 0;
    EXPECT_EQ(Fleet::Create(config.shard.dir, config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
    config.max_queue_ticks = 0;
    EXPECT_EQ(Fleet::Create(config.shard.dir, config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
    config.disk_budget = 0;
    EXPECT_EQ(Fleet::Create(config.shard.dir, config).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(ShardedEngineTest, RunsAndShutsDownCleanly) {
  const auto config = Config(AlgorithmKind::kCopyOnUpdate, 3);
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  ShardedEngine& engine = fleet_or.value()->engine();
  std::vector<StateTable> reference;
  RunTicks(&engine, 20, &reference);
  ASSERT_TRUE(engine.Shutdown().ok());
  for (uint32_t i = 0; i < engine.num_shards(); ++i) {
    EXPECT_TRUE(engine.shard(i).state().ContentEquals(reference[i]))
        << "shard " << i;
    EXPECT_GE(engine.shard(i).metrics().checkpoints.size(), 3u);
  }
  const ShardedCheckpointStats stats = engine.CheckpointStats();
  EXPECT_GE(stats.checkpoints, 9u);
  EXPECT_GT(stats.avg_total_seconds, 0.0);
  EXPECT_GE(stats.max_total_seconds, stats.avg_total_seconds);
}

TEST_F(ShardedEngineTest, RecoverAfterCleanShutdown) {
  const auto config = Config(AlgorithmKind::kCopyOnUpdatePartialRedo, 2);
  std::vector<StateTable> reference;
  {
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok());
    RunTicks(&fleet_or.value()->engine(), 25, &reference);
    ASSERT_TRUE(fleet_or.value()->Shutdown().ok());
  }
  auto recovered_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  const ShardedRecoveryResult& result = recovered_or->result().fleet;
  std::vector<StateTable>& recovered = recovered_or->tables();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(result.min_recovered_ticks, 25u);
  EXPECT_EQ(result.max_recovered_ticks, 25u);
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(recovered[i].ContentEquals(reference[i])) << "shard " << i;
  }
}

TEST_F(ShardedEngineTest, StaggeredShardsSitAtDifferentGenerations) {
  // Period 8, K=4: offsets 0/2/4/6, so at crash tick 13 each shard's newest
  // complete image covers a different consistent tick.
  auto config = Config(AlgorithmKind::kCopyOnUpdate, 4);
  config.checkpoint_period_ticks = 8;
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok());
  std::vector<StateTable> reference;
  RunTicks(&fleet_or.value()->engine(), 14, &reference);
  ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());

  auto recovered_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  const ShardedRecoveryResult& result = recovered_or->result().fleet;
  std::vector<StateTable>& recovered = recovered_or->tables();
  std::set<uint64_t> image_ticks;
  for (const RecoveryResult& shard : result.shards) {
    ASSERT_TRUE(shard.restored_from_checkpoint);
    image_ticks.insert(shard.image_consistent_ticks);
  }
  EXPECT_GE(image_ticks.size(), 2u)
      << "staggered shards should restore from different generations";
  EXPECT_EQ(result.min_recovered_ticks, 14u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(recovered[i].ContentEquals(reference[i])) << "shard " << i;
  }
}

// ---- Partial failure (the EndTick desync regression) ----

TEST_F(ShardedEngineTest, EndTickPartialFailureLeavesNoShardMidTick) {
  // Inject an EndTick failure on shard 1 of 4. The regression: EndTick
  // used to early-return on the first failing shard, leaving shards 2-3
  // stuck with in_tick_ == true and the fleet tick not advanced.
  auto config = Config(AlgorithmKind::kCopyOnUpdate, 4);
  config.threaded = false;  // deterministic: the error surfaces in-tick
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  ShardedEngine& engine = fleet_or.value()->engine();
  std::vector<StateTable> reference;
  RunTicks(&engine, 3, &reference);

  engine.shard(1).InjectEndTickErrorForTest(Status::IOError("injected"));
  const uint64_t num_cells = ShardLayout().num_cells();
  engine.BeginTick();
  for (uint32_t shard = 0; shard < 4; ++shard) {
    for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
      const uint32_t cell = WorkloadCell(shard, 3, i, num_cells);
      const int32_t value = WorkloadValue(3, cell, i);
      engine.ApplyUpdate(shard, cell, value);
      // Shard 1 loses this tick; every other shard must still commit it.
      if (shard != 1) reference[shard].WriteCell(cell, value);
    }
  }
  const Status status = engine.EndTick();
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(engine.failed());

  // The fleet tick advanced exactly once; shards 0/2/3 finished the tick
  // (not left mid-tick) and shard 1 froze at its failure tick.
  EXPECT_EQ(engine.current_tick(), 4u);
  EXPECT_EQ(engine.shard(0).current_tick(), 4u);
  EXPECT_EQ(engine.shard(1).current_tick(), 3u);
  EXPECT_EQ(engine.shard(2).current_tick(), 4u);
  EXPECT_EQ(engine.shard(3).current_tick(), 4u);

  // The hard-failed fleet shuts down in a defined way: engines close
  // cleanly, and Shutdown reports the sticky shard error instead of
  // swallowing it.
  EXPECT_FALSE(engine.Shutdown().ok());

  // Every shard recovers its own durable prefix: the healthy shards to the
  // fleet tick, the failed shard to its frozen tick.
  auto recovered_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  const ShardedRecoveryResult& result = recovered_or->result().fleet;
  std::vector<StateTable>& recovered = recovered_or->tables();
  EXPECT_EQ(result.min_recovered_ticks, 3u);
  EXPECT_EQ(result.max_recovered_ticks, 4u);
  EXPECT_EQ(result.shards[1].recovered_ticks, 3u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(recovered[i].ContentEquals(reference[i])) << "shard " << i;
  }
}

TEST_F(ShardedEngineTest, ThreadedPartialFailureHardFailsTheFleet) {
  // Threaded mode: the failing shard's error surfaces on a later EndTick
  // poll (or the WaitForIdle barrier), the healthy shards keep consuming
  // every submitted tick, and the fleet lands in the defined failed state.
  auto config = Config(AlgorithmKind::kCopyOnUpdate, 4);
  ASSERT_TRUE(config.threaded);
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  ShardedEngine& engine = fleet_or.value()->engine();
  std::vector<StateTable> reference;
  RunTicks(&engine, 5, &reference);

  // Quiesce the fleet so the injection happens on a parked shard.
  ASSERT_TRUE(engine.WaitForIdle().ok());
  engine.shard(1).InjectEndTickErrorForTest(Status::IOError("injected"));

  const uint64_t num_cells = ShardLayout().num_cells();
  Status status = Status::OK();
  while (status.ok() && engine.current_tick() < 20) {
    const uint64_t tick = engine.current_tick();
    engine.BeginTick();
    for (uint32_t shard = 0; shard < 4; ++shard) {
      for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
        const uint32_t cell = WorkloadCell(shard, tick, i, num_cells);
        const int32_t value = WorkloadValue(tick, cell, i);
        engine.ApplyUpdate(shard, cell, value);
        // Shard 1 fails at tick 5 and discards everything after.
        if (shard != 1) reference[shard].WriteCell(cell, value);
      }
    }
    status = engine.EndTick();
  }
  // Always barrier before inspecting per-shard engines: the healthy
  // runners may still be consuming when the error surfaces.
  const Status drain_status = engine.WaitForIdle();
  if (status.ok()) status = drain_status;
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(engine.failed());

  // No shard is left mid-tick: the healthy shards consumed every submitted
  // tick, the failed shard froze at its failure tick.
  EXPECT_EQ(engine.shard(1).current_tick(), 5u);
  for (uint32_t healthy : {0u, 2u, 3u}) {
    EXPECT_EQ(engine.shard(healthy).current_tick(), engine.current_tick())
        << "shard " << healthy;
  }
  const uint64_t fleet_ticks = engine.current_tick();
  EXPECT_FALSE(engine.Shutdown().ok());

  auto recovered_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  const ShardedRecoveryResult& result = recovered_or->result().fleet;
  std::vector<StateTable>& recovered = recovered_or->tables();
  EXPECT_EQ(result.min_recovered_ticks, 5u);
  EXPECT_EQ(result.max_recovered_ticks, fleet_ticks);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(recovered[i].ContentEquals(reference[i])) << "shard " << i;
  }
}

// ---- Threaded/inline equivalence and the adaptive fleet ----

TEST_F(ShardedEngineTest, ThreadedMatchesTheInlineFacade) {
  // Same workload, same schedule: per-shard final states must be identical
  // whether the shards run on their own mutator threads or multiplexed on
  // the facade's, and the checkpoint cadence must agree. (Exact start
  // ticks are NOT compared: a request is served at the first EndTick that
  // observes the previous flush drained, which depends on real writer
  // timing.)
  std::vector<std::unique_ptr<Fleet>> fleets;
  for (const bool threaded : {false, true}) {
    auto config = Config(AlgorithmKind::kCopyOnUpdate, 3);
    config.shard.dir = dir_ + (threaded ? "/threaded" : "/inline");
    config.threaded = threaded;
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    fleets.push_back(std::move(fleet_or.value()));
  }
  const auto checkpoints = [&](size_t fleet, uint32_t shard) {
    return fleets[fleet]->engine().shard(shard).metrics().checkpoints.size();
  };
  // How many checkpoints a fixed tick count completes depends on writer
  // timing, so both fleets tick in lockstep until every shard of each has
  // completed three, bounded far above what an unslowed run needs.
  constexpr uint64_t kMaxTicks = 400;
  std::vector<std::vector<StateTable>> references(fleets.size());
  for (bool all_three = false; !all_three;) {
    ASSERT_LT(fleets[0]->current_tick(), kMaxTicks)
        << "a shard completed fewer than three checkpoints";
    all_three = true;
    for (size_t f = 0; f < fleets.size(); ++f) {
      RunTicks(&fleets[f]->engine(), 10, &references[f]);
      ASSERT_TRUE(fleets[f]->WaitForIdle().ok());
      for (uint32_t i = 0; i < 3; ++i) all_three &= checkpoints(f, i) >= 3;
    }
  }
  for (const auto& fleet : fleets) ASSERT_TRUE(fleet->Shutdown().ok());
  for (uint32_t i = 0; i < 3; ++i) {
    const Engine& inline_shard = fleets[0]->engine().shard(i);
    const Engine& threaded_shard = fleets[1]->engine().shard(i);
    EXPECT_TRUE(threaded_shard.state().ContentEquals(inline_shard.state()))
        << "shard " << i;
    const size_t inline_count = checkpoints(0, i);
    const size_t threaded_count = checkpoints(1, i);
    EXPECT_GE(inline_count, 3u) << "shard " << i;
    EXPECT_GE(threaded_count, 3u) << "shard " << i;
    const size_t difference = inline_count > threaded_count
                                  ? inline_count - threaded_count
                                  : threaded_count - inline_count;
    EXPECT_LE(difference, 1u) << "shard " << i;
  }
}

TEST_F(ShardedEngineTest, AdaptiveFleetRespectsTheDiskBudget) {
  auto config = Config(AlgorithmKind::kCopyOnUpdate, 4);
  config.adaptive = true;
  config.disk_budget = 1;
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  ShardedEngine& engine = fleet_or.value()->engine();
  // Pace the ticks (a 30 Hz loop would): unpaced, the runners outrun the
  // writer threads so completions only surface at shutdown and the budget
  // correctly blocks every later start.
  const uint64_t num_cells = ShardLayout().num_cells();
  std::vector<StateTable> reference;
  for (uint32_t i = 0; i < 4; ++i) reference.emplace_back(ShardLayout());
  uint64_t tick = 0;
  const auto run_ticks = [&](uint64_t count) {
    for (uint64_t end = tick + count; tick < end; ++tick) {
      engine.BeginTick();
      for (uint32_t shard = 0; shard < 4; ++shard) {
        for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
          const uint32_t cell = WorkloadCell(shard, tick, i, num_cells);
          const int32_t value = WorkloadValue(tick, cell, i);
          engine.ApplyUpdate(shard, cell, value);
          reference[shard].WriteCell(cell, value);
        }
      }
      ASSERT_TRUE(engine.EndTick().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  run_ticks(40);
  // Budget-1 serializes every flush, so how many ticks the last shard's
  // second checkpoint needs depends on measured write times -- under a
  // sanitizer's slowdown, 40 ticks may not be enough. Keep ticking until
  // every shard has two, bounded far above what an unslowed run needs.
  while (tick < 400) {
    ASSERT_TRUE(engine.WaitForIdle().ok());
    bool all_twice = true;
    for (uint32_t i = 0; i < 4; ++i) {
      all_twice &= engine.shard(i).metrics().checkpoints.size() >= 2;
    }
    if (all_twice) break;
    run_ticks(20);
  }
  ASSERT_TRUE(engine.Shutdown().ok());
  // The hard budget invariant, measured on the real engine: never more
  // than disk_budget concurrent scheduled flushes.
  EXPECT_LE(engine.scheduler().max_concurrent_starts(), 1u);
  // Every shard still checkpoints and the fleet stays exact.
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_GE(engine.shard(i).metrics().checkpoints.size(), 2u)
        << "shard " << i;
    EXPECT_TRUE(engine.shard(i).state().ContentEquals(reference[i]))
        << "shard " << i;
  }
}

// ---- The fleet crash-recovery property ----

struct ShardedCrashCase {
  AlgorithmKind kind;
  uint32_t num_shards;
  uint64_t crash_tick;
  bool staggered;
  bool threaded = true;
  bool adaptive = false;
};

class ShardedCrashRecoveryTest
    : public ShardedEngineTest,
      public ::testing::WithParamInterface<ShardedCrashCase> {};

TEST_P(ShardedCrashRecoveryTest, EveryShardRecoversExactly) {
  const ShardedCrashCase param = GetParam();
  auto config = Config(param.kind, param.num_shards, param.staggered);
  config.threaded = param.threaded;
  config.adaptive = param.adaptive;
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  ShardedEngine& engine = fleet_or.value()->engine();

  std::vector<StateTable> reference;
  RunTicks(&engine, param.crash_tick + 1, &reference);
  ASSERT_TRUE(engine.SimulateCrash().ok());

  auto recovered_or = Fleet::Recover(config.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  const ShardedRecoveryResult& result = recovered_or->result().fleet;
  std::vector<StateTable>& recovered = recovered_or->tables();
  ASSERT_EQ(recovered.size(), param.num_shards);
  EXPECT_EQ(result.min_recovered_ticks, param.crash_tick + 1);
  EXPECT_EQ(result.max_recovered_ticks, param.crash_tick + 1);
  for (uint32_t i = 0; i < param.num_shards; ++i) {
    // The in-memory state at the crash is the gold reference...
    ASSERT_TRUE(engine.shard(i).state().ContentEquals(reference[i]))
        << "shard " << i << " diverged from reference before the crash";
    // ...and recovery must rebuild it bit-for-bit.
    EXPECT_TRUE(recovered[i].ContentEquals(reference[i]))
        << AlgorithmName(param.kind) << " K=" << param.num_shards
        << " crash@" << param.crash_tick << ": shard " << i << " diverges";
  }
}

std::vector<ShardedCrashCase> AllShardedCrashCases() {
  constexpr uint64_t kTicks = 18;  // > 3 periods: covers offsets and flushes
  std::vector<ShardedCrashCase> cases;
  // The two paper-validated algorithms: crash at EVERY tick, K in {2, 4}.
  for (AlgorithmKind kind :
       {AlgorithmKind::kNaiveSnapshot, AlgorithmKind::kCopyOnUpdate}) {
    for (uint32_t num_shards : {2u, 4u}) {
      for (uint64_t tick = 0; tick < kTicks; ++tick) {
        cases.push_back({kind, num_shards, tick, /*staggered=*/true});
      }
    }
  }
  // The remaining four: sampled crash ticks (early / mid-period / late),
  // both shard counts, plus the synchronized schedule.
  for (AlgorithmKind kind :
       {AlgorithmKind::kDribble, AlgorithmKind::kAtomicCopyDirty,
        AlgorithmKind::kPartialRedo,
        AlgorithmKind::kCopyOnUpdatePartialRedo}) {
    for (uint32_t num_shards : {2u, 4u}) {
      for (uint64_t tick : {3ull, 11ull, 16ull}) {
        cases.push_back({kind, num_shards, tick, /*staggered=*/true});
      }
    }
  }
  for (AlgorithmKind kind :
       {AlgorithmKind::kNaiveSnapshot, AlgorithmKind::kCopyOnUpdate}) {
    for (uint64_t tick : {0ull, 7ull, 13ull}) {
      cases.push_back({kind, 4, tick, /*staggered=*/false});
    }
  }
  // The inline (single-thread facade) path stays covered...
  for (AlgorithmKind kind :
       {AlgorithmKind::kNaiveSnapshot, AlgorithmKind::kCopyOnUpdate}) {
    for (uint64_t tick : {2ull, 9ull, 16ull}) {
      cases.push_back(
          {kind, 4, tick, /*staggered=*/true, /*threaded=*/false});
    }
  }
  // ...and the adaptive schedule must be recovery-exact too (whatever
  // starts it picked, every shard's durable prefix rebuilds bit-for-bit).
  for (uint64_t tick : {4ull, 12ull, 17ull}) {
    cases.push_back({AlgorithmKind::kCopyOnUpdate, 4, tick,
                     /*staggered=*/true, /*threaded=*/true,
                     /*adaptive=*/true});
  }
  return cases;
}

std::string ShardedCrashCaseName(
    const ::testing::TestParamInfo<ShardedCrashCase>& info) {
  std::string name = std::string(GetTraits(info.param.kind).short_name) +
                     "_k" + std::to_string(info.param.num_shards) + "_tick" +
                     std::to_string(info.param.crash_tick) +
                     (info.param.staggered ? "" : "_sync") +
                     (info.param.threaded ? "" : "_inline") +
                     (info.param.adaptive ? "_adaptive" : "");
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(FleetCrashPoints, ShardedCrashRecoveryTest,
                         ::testing::ValuesIn(AllShardedCrashCases()),
                         ShardedCrashCaseName);

// ---- The fleet-wide consistent cut ----

struct CutCrashCase {
  AlgorithmKind kind;
  uint32_t num_shards;
  uint64_t crash_tick;
  bool threaded;
};

class ConsistentCutCrashRecoveryTest
    : public ShardedEngineTest,
      public ::testing::WithParamInterface<CutCrashCase> {};

// The central tentpole property: with the cut requested at fleet tick 2
// (cut tick T = 4), a crash at ANY tick either recovers the whole fleet to
// exactly T from the committed manifest (crash after the commit, however
// many staggered checkpoints landed since), or falls back to per-shard
// exactness (crash before the commit -- including the crash BETWEEN the
// last shard ack and the manifest commit, which is exactly the
// crash_tick == T case: every shard's cut checkpoint is durable but
// CommitConsistentCut never ran).
TEST_P(ConsistentCutCrashRecoveryTest, FleetRecoversExactlyToTheCut) {
  const CutCrashCase param = GetParam();
  auto config = Config(param.kind, param.num_shards);
  config.threaded = param.threaded;
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  ShardedEngine& engine = fleet_or.value()->engine();

  constexpr uint64_t kRequestAt = 2;
  std::vector<StateTable> reference;
  std::vector<StateTable> reference_at_cut;
  uint64_t cut_tick = 0;
  bool armed = false;
  bool committed = false;
  for (uint64_t t = 0; t <= param.crash_tick; ++t) {
    if (!armed && engine.current_tick() == kRequestAt) {
      auto cut_or = engine.RequestConsistentCut();
      ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
      cut_tick = cut_or.value();
      ASSERT_EQ(cut_tick, kRequestAt + config.cut_lead_ticks);
      armed = true;
    }
    RunTicks(&engine, 1, &reference);
    if (armed && !committed && engine.current_tick() == cut_tick + 1) {
      reference_at_cut = SnapshotTables(reference);
      if (param.crash_tick > cut_tick) {
        const Status commit = engine.CommitConsistentCut();
        ASSERT_TRUE(commit.ok()) << commit.ToString();
        committed = true;
        EXPECT_EQ(engine.last_cut_report().cut_tick, cut_tick);
      }
      // crash_tick == cut_tick: fall through WITHOUT committing -- the
      // ack/commit gap case.
    }
  }
  ASSERT_TRUE(engine.SimulateCrash().ok());

  auto recovered_or = Fleet::RecoverToCut(config.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  const FleetRecoveryResult& result = recovered_or->result();
  std::vector<StateTable>& recovered = recovered_or->tables();
  ASSERT_EQ(recovered.size(), param.num_shards);
  if (committed) {
    EXPECT_TRUE(result.landed);
    EXPECT_TRUE(recovered_or->at_cut());
    EXPECT_EQ(result.cut_tick, cut_tick);
    EXPECT_EQ(result.fleet.min_recovered_ticks, cut_tick + 1);
    EXPECT_EQ(result.fleet.max_recovered_ticks, cut_tick + 1);
    for (uint32_t i = 0; i < param.num_shards; ++i) {
      EXPECT_TRUE(recovered[i].ContentEquals(reference_at_cut[i]))
          << AlgorithmName(param.kind) << " K=" << param.num_shards
          << " crash@" << param.crash_tick << ": shard " << i
          << " diverges from the cut state";
    }
  } else {
    EXPECT_FALSE(result.landed);
    EXPECT_EQ(result.fleet.min_recovered_ticks, param.crash_tick + 1);
    EXPECT_EQ(result.fleet.max_recovered_ticks, param.crash_tick + 1);
    for (uint32_t i = 0; i < param.num_shards; ++i) {
      EXPECT_TRUE(recovered[i].ContentEquals(reference[i]))
          << AlgorithmName(param.kind) << " K=" << param.num_shards
          << " crash@" << param.crash_tick << ": shard " << i
          << " diverges in the per-shard fallback";
    }
  }
}

std::vector<CutCrashCase> AllCutCrashCases() {
  constexpr uint64_t kTicks = 18;  // well past the cut: later staggered
                                   // checkpoints overwrite the cut images
  std::vector<CutCrashCase> cases;
  // Double-backup organization: crash at EVERY tick, K in {2, 4},
  // threaded and inline.
  for (bool threaded : {true, false}) {
    for (uint32_t num_shards : {2u, 4u}) {
      for (uint64_t tick = 0; tick < kTicks; ++tick) {
        cases.push_back(
            {AlgorithmKind::kCopyOnUpdate, num_shards, tick, threaded});
      }
    }
  }
  // Log organization: cut segments live inside generations that later full
  // flushes retire, forcing the zero+bounded-replay path.
  for (uint32_t num_shards : {2u, 4u}) {
    for (uint64_t tick = 0; tick < kTicks; ++tick) {
      cases.push_back({AlgorithmKind::kCopyOnUpdatePartialRedo, num_shards,
                       tick, /*threaded=*/true});
    }
  }
  // Dribble: every checkpoint is a fresh all-objects generation.
  for (uint64_t tick : {0ull, 4ull, 9ull, 16ull}) {
    cases.push_back({AlgorithmKind::kDribble, 2, tick, /*threaded=*/true});
  }
  return cases;
}

std::string CutCrashCaseName(
    const ::testing::TestParamInfo<CutCrashCase>& info) {
  std::string name = std::string(GetTraits(info.param.kind).short_name) +
                     "_k" + std::to_string(info.param.num_shards) + "_tick" +
                     std::to_string(info.param.crash_tick) +
                     (info.param.threaded ? "" : "_inline");
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(CutCrashPoints, ConsistentCutCrashRecoveryTest,
                         ::testing::ValuesIn(AllCutCrashCases()),
                         CutCrashCaseName);

TEST_F(ShardedEngineTest, ConsistentCutProtocolGuards) {
  auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  ShardedEngine& engine = fleet_or.value()->engine();
  std::vector<StateTable> reference;

  // Commit with nothing armed.
  EXPECT_EQ(engine.CommitConsistentCut().code(),
            StatusCode::kFailedPrecondition);

  auto cut_or = engine.RequestConsistentCut();
  ASSERT_TRUE(cut_or.ok());
  const uint64_t cut_tick = cut_or.value();
  EXPECT_TRUE(engine.cut_in_flight());
  EXPECT_EQ(engine.pending_cut_tick(), cut_tick);
  // Only one cut may be in flight.
  EXPECT_EQ(engine.RequestConsistentCut().status().code(),
            StatusCode::kFailedPrecondition);
  // Committing before tick T has been driven is refused.
  EXPECT_EQ(engine.CommitConsistentCut().code(),
            StatusCode::kFailedPrecondition);

  RunTicks(&engine, cut_tick + 1, &reference);
  ASSERT_TRUE(engine.CommitConsistentCut().ok());
  EXPECT_FALSE(engine.cut_in_flight());
  EXPECT_GT(engine.last_cut_report().commit_latency_seconds, 0.0);

  // The committed manifest is well-formed: one ack per shard, each at
  // exactly the cut tick's end.
  auto manifest_or = ReadCutManifest(config.shard.dir);
  ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().ToString();
  EXPECT_EQ(manifest_or->cut_tick, cut_tick);
  ASSERT_EQ(manifest_or->shards.size(), 2u);
  for (const CutShardRecord& shard : manifest_or->shards) {
    EXPECT_EQ(shard.consistent_ticks, cut_tick + 1);
  }

  // A second cut after the first committed is legal and replaces the
  // manifest.
  auto second_or = engine.RequestConsistentCut();
  ASSERT_TRUE(second_or.ok());
  RunTicks(&engine, second_or.value() + 1 - engine.current_tick() + 1,
           &reference);
  ASSERT_TRUE(engine.CommitConsistentCut().ok());
  auto second_manifest_or = ReadCutManifest(config.shard.dir);
  ASSERT_TRUE(second_manifest_or.ok());
  EXPECT_EQ(second_manifest_or->cut_tick, second_or.value());
  ASSERT_TRUE(engine.Shutdown().ok());
}

TEST_F(ShardedEngineTest, TornCutManifestFallsBackToPerShardRecovery) {
  auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  ShardedEngine& engine = fleet_or.value()->engine();
  std::vector<StateTable> reference;
  RunTicks(&engine, 2, &reference);
  auto cut_or = engine.RequestConsistentCut();
  ASSERT_TRUE(cut_or.ok());
  RunTicks(&engine, cut_or.value() + 1 - engine.current_tick(), &reference);
  ASSERT_TRUE(engine.CommitConsistentCut().ok());
  RunTicks(&engine, 3, &reference);
  const uint64_t crash_ticks = engine.current_tick();
  ASSERT_TRUE(engine.SimulateCrash().ok());

  // Tear the committed manifest (crash-during-publish damage model): the
  // cut must be ignored, not half-applied.
  const std::string manifest_path = CutManifestPath(config.shard.dir);
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(manifest_path, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(manifest_path, size / 2, ec);
  ASSERT_FALSE(ec);

  auto recovered_or = Fleet::RecoverToCut(config.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  const FleetRecoveryResult& result = recovered_or->result();
  std::vector<StateTable>& recovered = recovered_or->tables();
  EXPECT_FALSE(result.landed);
  EXPECT_EQ(result.fleet.min_recovered_ticks, crash_ticks);
  EXPECT_EQ(result.fleet.max_recovered_ticks, crash_ticks);
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(recovered[i].ContentEquals(reference[i])) << "shard " << i;
  }
}

// ---- Seeded randomized fleet crash injection ----

// One fuzz iteration's shape, fully derived from the seed so a failure
// line names everything needed to replay it.
struct FuzzShape {
  AlgorithmKind kind;
  uint32_t num_shards;
  bool threaded;
  uint64_t crash_tick;
  bool with_cut;
  uint64_t request_at;
};

TEST_F(ShardedEngineTest, SeededRandomizedFleetCrashInjection) {
  // Randomized sweep over (algorithm, shard count, threaded/inline, crash
  // tick, cut-in-flight-or-not). The seed is printed via SCOPED_TRACE on
  // any failure; set TP_FLEET_FUZZ_SEED to replay a reported failure
  // exactly.
  uint64_t seed;
  if (const char* env = std::getenv("TP_FLEET_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  } else {
    std::random_device device;
    seed = (static_cast<uint64_t>(device()) << 32) ^ device();
  }
  SCOPED_TRACE("replay with TP_FLEET_FUZZ_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  const AlgorithmKind kinds[] = {
      AlgorithmKind::kNaiveSnapshot, AlgorithmKind::kCopyOnUpdate,
      AlgorithmKind::kDribble, AlgorithmKind::kCopyOnUpdatePartialRedo};

  constexpr int kIterations = 6;
  for (int iter = 0; iter < kIterations; ++iter) {
    FuzzShape shape;
    shape.kind = kinds[rng() % std::size(kinds)];
    shape.num_shards = 2 + static_cast<uint32_t>(rng() % 3);
    shape.threaded = (rng() & 1) != 0;
    shape.crash_tick = rng() % 20;
    shape.with_cut = (rng() & 1) != 0;
    shape.request_at = rng() % (shape.crash_tick + 1);
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " +
                 std::string(AlgorithmName(shape.kind)) + " K=" +
                 std::to_string(shape.num_shards) +
                 (shape.threaded ? " threaded" : " inline") + " crash@" +
                 std::to_string(shape.crash_tick) +
                 (shape.with_cut
                      ? " cut-requested@" + std::to_string(shape.request_at)
                      : " no-cut"));

    auto config = Config(shape.kind, shape.num_shards);
    config.shard.dir = dir_ + "/iter" + std::to_string(iter);
    config.threaded = shape.threaded;
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ShardedEngine& engine = fleet_or.value()->engine();

    std::vector<StateTable> reference;
    std::vector<StateTable> reference_at_cut;
    uint64_t cut_tick = 0;
    bool armed = false;
    bool committed = false;
    for (uint64_t t = 0; t <= shape.crash_tick; ++t) {
      if (shape.with_cut && !armed &&
          engine.current_tick() == shape.request_at) {
        auto cut_or = engine.RequestConsistentCut();
        ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
        cut_tick = cut_or.value();
        armed = true;
      }
      RunTicks(&engine, 1, &reference);
      if (armed && !committed && engine.current_tick() == cut_tick + 1) {
        reference_at_cut = SnapshotTables(reference);
        if (shape.crash_tick > cut_tick) {
          const Status commit = engine.CommitConsistentCut();
          ASSERT_TRUE(commit.ok()) << commit.ToString();
          committed = true;
        }
      }
    }
    ASSERT_TRUE(engine.SimulateCrash().ok());

    auto recovered_or = Fleet::RecoverToCut(config.shard.dir);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    const FleetRecoveryResult& result = recovered_or->result();
    std::vector<StateTable>& recovered = recovered_or->tables();
    ASSERT_EQ(recovered.size(), shape.num_shards);
    const std::vector<StateTable>& expected =
        committed ? reference_at_cut : reference;
    const uint64_t expected_ticks =
        committed ? cut_tick + 1 : shape.crash_tick + 1;
    EXPECT_EQ(result.landed, committed);
    EXPECT_EQ(result.fleet.min_recovered_ticks, expected_ticks);
    EXPECT_EQ(result.fleet.max_recovered_ticks, expected_ticks);
    for (uint32_t i = 0; i < shape.num_shards; ++i) {
      EXPECT_TRUE(recovered[i].ContentEquals(expected[i])) << "shard " << i;
    }
  }
}

}  // namespace
}  // namespace tickpoint
