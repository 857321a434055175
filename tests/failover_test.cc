// Hot failover via in-memory cross-shard delta replication: each
// partition's per-tick delta streams to a peer shard's bounded
// ReplicaBuffer, and FailoverShard revives a crashed shard from that
// buffer -- byte-identical to what disk recovery would produce, which is
// exactly what these tests pin: every peer-memory rebuild is compared
// against a disk-recovered oracle taken BEFORE the failover touched the
// shard directory, plus the test's own mirrored reference tables. The
// fallback matrix (torn buffer, dead peer, replication off) and the
// replication-knob validation ride along.
#include "engine/fleet.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "engine/mutator.h"
#include "engine/recovery.h"
#include "engine/replica_buffer.h"
#include "engine/sharded_engine.h"
#include "fleet_test_util.h"

namespace tickpoint {
namespace {

StateLayout ShardLayout() { return StateLayout::Small(512, 10); }  // 40 objects

constexpr uint64_t kUpdatesPerTick = 150;

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_failover_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ShardedEngineConfig Config(uint32_t num_shards) {
    ShardedEngineConfig config;
    config.shard.layout = ShardLayout();
    config.shard.algorithm = AlgorithmKind::kCopyOnUpdate;
    config.shard.dir = dir_;
    config.shard.fsync = false;  // simulated crashes: page cache is durable
    config.shard.full_flush_period = 3;
    config.num_shards = num_shards;
    config.checkpoint_period_ticks = 5;
    config.replicate = true;
    return config;
  }

  /// Drives `ticks` fleet ticks of the deterministic workload from the
  /// engine's current tick, mirroring every update into `reference`.
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

  /// Disk-recovers partition `p`'s state from its shard directory (the
  /// oracle a peer-memory rebuild must byte-match). Must run BEFORE
  /// FailoverShard, whose bootstrap checkpoint rewrites the directory.
  StateTable DiskOracle(const ShardedEngineConfig& config,
                        const ShardedEngine& engine, uint32_t p,
                        uint64_t expect_ticks) {
    EngineConfig shard_config = config.shard;
    shard_config.dir = ShardedEngine::ShardDir(
        config.shard.dir, engine.manifest().assignment[p]);
    shard_config.manual_checkpoints = true;
    StateTable table(config.shard.layout);
    auto result_or = Recover(shard_config, &table);
    EXPECT_TRUE(result_or.ok()) << result_or.status().ToString();
    if (result_or.ok()) {
      EXPECT_EQ(result_or.value().recovered_ticks, expect_ticks)
          << "disk oracle for partition " << p;
    }
    return table;
  }

  std::string dir_;
};

// ---- Crash-at-every-tick sweep ----

/// The parameter is the shard count K.
class FailoverSweepTest : public FailoverTest,
                          public ::testing::WithParamInterface<uint32_t> {};

TEST_P(FailoverSweepTest, CrashEveryTickRecoversFromPeerMemory) {
  const uint32_t num_shards = GetParam();
  for (uint64_t crash_tick = 1; crash_tick <= 8; ++crash_tick) {
    SCOPED_TRACE("crash_tick=" + std::to_string(crash_tick));
    std::filesystem::remove_all(dir_);
    const auto config = Config(num_shards);
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    ShardedEngine& engine = fleet.engine();
    std::vector<StateTable> reference;
    RunTicks(&engine, crash_tick, &reference);

    const uint32_t victim =
        static_cast<uint32_t>(crash_tick % num_shards);
    ASSERT_TRUE(fleet.SimulateShardCrash(victim).ok());
    // The disk oracle first: peer-memory recovery must be byte-identical
    // to what a disk replay of the dead shard would have produced.
    StateTable oracle = DiskOracle(config, engine, victim, crash_tick);
    ASSERT_TRUE(oracle.ContentEquals(reference[victim]));
    const uint64_t oracle_digest = oracle.Digest();

    ASSERT_TRUE(fleet.FailoverShard(victim).ok());
    const FailoverReport& report = fleet.last_failover_report();
    EXPECT_TRUE(report.used_peer_memory)
        << "peer buffer did not cover tick " << crash_tick;
    EXPECT_EQ(report.partition, victim);
    EXPECT_EQ(report.rebuilt_ticks, crash_tick);
    ASSERT_TRUE(engine.WaitForIdle().ok());
    EXPECT_EQ(engine.shard(victim).state().Digest(), oracle_digest);
    EXPECT_TRUE(engine.shard(victim).state().ContentEquals(oracle));

    // The revived fleet keeps playing; a later whole-fleet crash recovers
    // everything (the bootstrap checkpoint outranks pre-crash images).
    RunTicks(&engine, 4, &reference);
    ASSERT_TRUE(fleet.SimulateCrash().ok());
    auto recovered_or = Fleet::Recover(config.shard.dir);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    ASSERT_EQ(recovered_or->result().fleet.min_recovered_ticks,
              crash_tick + 4);
    for (uint32_t i = 0; i < num_shards; ++i) {
      EXPECT_TRUE(recovered_or->tables()[i].ContentEquals(reference[i]))
          << "shard " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FailoverSweepTest, ::testing::Values(2u, 4u),
                         [](const auto& info) {
                           return "K" + std::to_string(info.param);
                         });

// ---- Fallback matrix ----

TEST_F(FailoverTest, TornReplicaBufferFallsBackToDisk) {
  const auto config = Config(3);
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  ShardedEngine& engine = fleet.engine();
  std::vector<StateTable> reference;
  RunTicks(&engine, 6, &reference);
  ASSERT_TRUE(fleet.SimulateShardCrash(1).ok());
  // Tear the replica (as if the host had restarted and lost the ring).
  ReplicaBuffer* buffer = engine.replica_buffer(1);
  ASSERT_NE(buffer, nullptr);
  buffer->MarkTorn();
  ASSERT_TRUE(fleet.FailoverShard(1).ok());
  EXPECT_FALSE(fleet.last_failover_report().used_peer_memory);
  ASSERT_TRUE(engine.WaitForIdle().ok());
  EXPECT_TRUE(engine.shard(1).state().ContentEquals(reference[1]));
  // The disk-path failover re-anchored the buffer: the NEXT death takes
  // the fast path again.
  RunTicks(&engine, 3, &reference);
  ASSERT_TRUE(fleet.SimulateShardCrash(1).ok());
  ASSERT_TRUE(fleet.FailoverShard(1).ok());
  EXPECT_TRUE(fleet.last_failover_report().used_peer_memory);
  ASSERT_TRUE(engine.WaitForIdle().ok());
  EXPECT_TRUE(engine.shard(1).state().ContentEquals(reference[1]));
}

TEST_F(FailoverTest, AFailedFailoverNeverExposesTheLastReport) {
  // Regression: FailoverShard populated last_failover_report_ only on
  // success, so an ERROR return left the PREVIOUS failover's report in
  // place -- a monitoring caller reading the report after a failed
  // failover saw a stale "rebuilt from peer memory in N ms" for a shard
  // that is in fact still dead. The report must reset to a blank at
  // entry, so error paths expose nothing.
  const auto config = Config(2);
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  ShardedEngine& engine = fleet.engine();
  std::vector<StateTable> reference;
  RunTicks(&engine, 5, &reference);
  // First death: the happy peer-memory path fills the report.
  ASSERT_TRUE(fleet.SimulateShardCrash(0).ok());
  ASSERT_TRUE(fleet.FailoverShard(0).ok());
  ASSERT_TRUE(fleet.last_failover_report().used_peer_memory);
  ASSERT_GT(fleet.last_failover_report().rebuilt_ticks, 0u);
  RunTicks(&engine, 3, &reference);

  // Second death with BOTH paths destroyed: tear the replica (memory
  // path) and delete the shard directory (disk fallback).
  ASSERT_TRUE(fleet.SimulateShardCrash(0).ok());
  ASSERT_NE(engine.replica_buffer(0), nullptr);
  engine.replica_buffer(0)->MarkTorn();
  std::filesystem::remove_all(ShardedEngine::ShardDir(
      config.shard.dir, engine.manifest().assignment[0]));
  EXPECT_FALSE(fleet.FailoverShard(0).ok());
  EXPECT_FALSE(fleet.last_failover_report().used_peer_memory)
      << "the failed failover leaked the previous success's report";
  EXPECT_EQ(fleet.last_failover_report().rebuilt_ticks, 0u);
  EXPECT_EQ(fleet.last_failover_report().rebuild_seconds, 0.0);
  // The fleet (one partition permanently dead) still tears down safely.
}

TEST_F(FailoverTest, DeadPeerFallsBackToDiskThenReArms) {
  // K=2 double death: both shards down, both replicas lost (each hosted
  // the other's). Both failovers must fall back to disk; once both are
  // back, the re-anchored buffers serve the next death from memory.
  const auto config = Config(2);
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  ShardedEngine& engine = fleet.engine();
  std::vector<StateTable> reference;
  RunTicks(&engine, 7, &reference);
  ASSERT_TRUE(fleet.SimulateShardCrash(0).ok());
  ASSERT_TRUE(fleet.SimulateShardCrash(1).ok());
  ASSERT_TRUE(fleet.FailoverShard(0).ok());
  EXPECT_FALSE(fleet.last_failover_report().used_peer_memory)
      << "host of partition 0's replica was dead; memory path impossible";
  ASSERT_TRUE(fleet.FailoverShard(1).ok());
  EXPECT_FALSE(fleet.last_failover_report().used_peer_memory)
      << "partition 1's replica was recreated torn while its source was "
         "down";
  ASSERT_TRUE(engine.WaitForIdle().ok());
  EXPECT_TRUE(engine.shard(0).state().ContentEquals(reference[0]));
  EXPECT_TRUE(engine.shard(1).state().ContentEquals(reference[1]));
  RunTicks(&engine, 3, &reference);
  ASSERT_TRUE(fleet.SimulateShardCrash(0).ok());
  ASSERT_TRUE(fleet.FailoverShard(0).ok());
  EXPECT_TRUE(fleet.last_failover_report().used_peer_memory);
  ASSERT_TRUE(engine.WaitForIdle().ok());
  EXPECT_TRUE(engine.shard(0).state().ContentEquals(reference[0]));
}

TEST_F(FailoverTest, ReplicationOffStillFailsOverFromDisk) {
  auto config = Config(2);
  config.replicate = false;
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  ShardedEngine& engine = fleet.engine();
  EXPECT_EQ(engine.replica_buffer(0), nullptr);
  std::vector<StateTable> reference;
  RunTicks(&engine, 5, &reference);
  ASSERT_TRUE(fleet.SimulateShardCrash(0).ok());
  ASSERT_TRUE(fleet.FailoverShard(0).ok());
  EXPECT_FALSE(fleet.last_failover_report().used_peer_memory);
  ASSERT_TRUE(engine.WaitForIdle().ok());
  EXPECT_TRUE(engine.shard(0).state().ContentEquals(reference[0]));
  RunTicks(&engine, 3, &reference);
  ASSERT_TRUE(engine.WaitForIdle().ok());
  EXPECT_TRUE(engine.shard(0).state().ContentEquals(reference[0]));
}

// ---- Replica-ring bounds and trim-at-cut ----

TEST_F(FailoverTest, BoundedRingFoldsAndTrimsAtCommittedCuts) {
  auto config = Config(2);
  config.replica_depth = 4;
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  ShardedEngine& engine = fleet.engine();
  std::vector<StateTable> reference;
  RunTicks(&engine, 11, &reference);
  ASSERT_TRUE(engine.WaitForIdle().ok());
  ReplicaBuffer* buffer = engine.replica_buffer(0);
  ASSERT_NE(buffer, nullptr);
  // Overflow folded the ring down to its depth; coverage never lapsed.
  EXPECT_LE(buffer->size(), 4u);
  EXPECT_EQ(buffer->consistent_ticks(), 11u);
  EXPECT_FALSE(buffer->torn());

  // A committed cut trims eagerly: the batches at or below the cut fold
  // into the base on the next tick, regardless of depth.
  auto cut_or = fleet.RequestConsistentCut();
  ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
  const uint64_t cut_tick = cut_or.value();
  while (engine.current_tick() <= cut_tick) {
    RunTicks(&engine, 1, &reference);
  }
  ASSERT_TRUE(fleet.CommitConsistentCut().ok());
  RunTicks(&engine, 1, &reference);  // the batch carrying the trim
  ASSERT_TRUE(engine.WaitForIdle().ok());
  // The trim folds every COMMITTED batch at or below the cut; the cut
  // tick's own batch may still be the prepared tip, so the anchor lands
  // at (at least) the cut tick itself -- far past what depth-4 overflow
  // folding alone would have reached.
  EXPECT_GE(buffer->anchor_ticks(), cut_tick)
      << "ring was not trimmed at the committed cut";
  EXPECT_EQ(buffer->consistent_ticks(), engine.current_tick());

  // And the buffer still fails over correctly after all that folding.
  ASSERT_TRUE(fleet.SimulateShardCrash(0).ok());
  ASSERT_TRUE(fleet.FailoverShard(0).ok());
  EXPECT_TRUE(fleet.last_failover_report().used_peer_memory);
  ASSERT_TRUE(engine.WaitForIdle().ok());
  EXPECT_TRUE(engine.shard(0).state().ContentEquals(reference[0]));
}

// ---- Failover survives a fleet restart (manifest-carried topology) ----

TEST_F(FailoverTest, FailoverWorksAfterFleetReopen) {
  const auto config = Config(3);
  {
    auto fleet_or = Fleet::Create(config.shard.dir, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    std::vector<StateTable> scratch;
    RunTicks(&fleet_or.value()->engine(), 5, &scratch);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  // Reopen from the root alone: the manifest carries replicate,
  // replica_depth, and the active-replica designation.
  auto fleet_or = Fleet::Open(config.shard.dir);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  ASSERT_TRUE(fleet.manifest().config.replicate);
  EXPECT_EQ(fleet.manifest().config.replica_depth, config.replica_depth);
  ASSERT_EQ(fleet.manifest().config.replica_peer.size(), 3u);
  ShardedEngine& engine = fleet.engine();
  std::vector<StateTable> reference;
  // Rebuild the reference from the recovered state, then keep playing.
  for (uint32_t i = 0; i < 3; ++i) {
    reference.push_back(StateTable(ShardLayout()));
  }
  ASSERT_TRUE(engine.WaitForIdle().ok());
  for (uint32_t i = 0; i < 3; ++i) {
    std::memcpy(reference[i].mutable_data(), engine.shard(i).state().data(),
                reference[i].buffer_bytes());
  }
  RunTicks(&engine, 4, &reference);
  ASSERT_TRUE(fleet.SimulateShardCrash(2).ok());
  ASSERT_TRUE(fleet.FailoverShard(2).ok());
  EXPECT_TRUE(fleet.last_failover_report().used_peer_memory);
  ASSERT_TRUE(engine.WaitForIdle().ok());
  EXPECT_TRUE(engine.shard(2).state().ContentEquals(reference[2]));
}

// ---- Preconditions and knob validation ----

TEST_F(FailoverTest, CrashAndFailoverPreconditions) {
  const auto config = Config(2);
  auto fleet_or = Fleet::Create(config.shard.dir, config);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  Fleet& fleet = *fleet_or.value();
  std::vector<StateTable> reference;
  RunTicks(&fleet.engine(), 3, &reference);

  EXPECT_EQ(fleet.SimulateShardCrash(9).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.FailoverShard(9).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.FailoverShard(0).code(),
            StatusCode::kFailedPrecondition)
      << "failover of a live shard must be refused";

  // A cut in flight blocks crash injection...
  auto cut_or = fleet.RequestConsistentCut();
  ASSERT_TRUE(cut_or.ok());
  EXPECT_EQ(fleet.SimulateShardCrash(0).code(),
            StatusCode::kFailedPrecondition);
  while (fleet.current_tick() <= cut_or.value()) {
    RunTicks(&fleet.engine(), 1, &reference);
  }
  ASSERT_TRUE(fleet.CommitConsistentCut().ok());

  // ...and a crashed shard blocks cuts, migration, and double-crash.
  ASSERT_TRUE(fleet.SimulateShardCrash(0).ok());
  EXPECT_EQ(fleet.SimulateShardCrash(0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.RequestConsistentCut().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.MigratePartition(1, 5).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.FailoverShard(0).ok());
  RunTicks(&fleet.engine(), 2, &reference);
}

TEST_F(FailoverTest, CreateValidatesReplicationKnobs) {
  {
    auto config = Config(2);
    config.replica_depth = 0;
    EXPECT_EQ(Fleet::Create(dir_, config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto config = Config(2);
    config.replica_peer = {1, 1};  // partition 1 self-peered
    EXPECT_EQ(Fleet::Create(dir_, config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto config = Config(2);
    config.replica_peer = {1, 7};  // out of range
    EXPECT_EQ(Fleet::Create(dir_, config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto config = Config(2);
    config.replica_peer = {1};  // wrong size
    EXPECT_EQ(Fleet::Create(dir_, config).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto config = Config(1);
    EXPECT_EQ(Fleet::Create(dir_, config).status().code(),
              StatusCode::kInvalidArgument)
        << "a 1-shard fleet has nowhere to host a replica";
  }
  // And a VALID explicit (non-ring) designation is accepted.
  {
    auto config = Config(3);
    config.replica_peer = {2, 0, 1};  // reverse ring
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    EXPECT_EQ(fleet_or.value()->manifest().config.replica_peer,
              (std::vector<uint32_t>{2, 0, 1}));
    std::vector<StateTable> reference;
    RunTicks(&fleet_or.value()->engine(), 4, &reference);
    ASSERT_TRUE(fleet_or.value()->SimulateShardCrash(0).ok());
    ASSERT_TRUE(fleet_or.value()->FailoverShard(0).ok());
    EXPECT_TRUE(fleet_or.value()->last_failover_report().used_peer_memory);
  }
}

TEST_F(FailoverTest, OpenRefusesAForgedSelfPeeredManifest) {
  // The read path's structural validation (Corruption) deliberately does
  // NOT reject self-peering -- a structurally corrupt newest manifest
  // would silently fall back to the previous epoch. Instead the Open path
  // surfaces InvalidArgument through the same validation Create uses.
  const auto config = Config(2);
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    std::vector<StateTable> scratch;
    RunTicks(&fleet_or.value()->engine(), 3, &scratch);
    ASSERT_TRUE(fleet_or.value()->Shutdown().ok());
  }
  auto manifest_or = ReadNewestFleetManifest(dir_);
  ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().ToString();
  FleetManifest forged = manifest_or.value();
  forged.epoch += 1;
  forged.config.replica_peer = {0, 1};  // both self-peered, CRC-valid
  ASSERT_TRUE(WriteFleetManifest(dir_, forged, /*fsync=*/false).ok());
  EXPECT_EQ(Fleet::Open(dir_).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tickpoint
