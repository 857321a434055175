// Game-workload conformance: the Knights-and-Archers world driven through
// the sharded checkpoint fleet (game/shard_adapter.h), with recovery
// correctness reduced to an exact digest equality -- for K zones, either
// disk organization, and ANY crash tick, every
// recovered partition must digest-equal the golden (uncrashed) run's zone
// at the same world tick. This is the paper's own workload (Table 5)
// finally exercising the fleet the synthetic sweeps validated.
#include "game/shard_adapter.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "engine/fleet.h"
#include "engine/recovery.h"

namespace tickpoint {
namespace game {
namespace {

/// Engine ticks per sweep case: crash ticks 0..kSweepTicks-1 cover the
/// bulk-load tick, several checkpoint periods (period 4), and a full flush
/// of the log organization (full_flush_period 3).
constexpr uint64_t kSweepTicks = 10;

WorldConfig TinyZone() {
  WorldConfig config;
  config.num_units = 64;
  config.map_size = 256;
  config.bucket_shift = 5;
  config.spawn_radius = 100;
  config.seed = 1234;  // explicit: the golden digests depend on it
  return config;
}

class GameShardConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_game_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  GameShardAdapterConfig Config(AlgorithmKind kind, uint32_t num_zones) {
    GameShardAdapterConfig config;
    config.zone_world = TinyZone();
    config.engine.shard.algorithm = kind;
    config.engine.shard.dir = dir_;
    config.engine.shard.fsync = false;  // simulated crashes: cache durable
    config.engine.shard.full_flush_period = 3;
    config.engine.num_shards = num_zones;
    config.engine.checkpoint_period_ticks = 4;
    return config;
  }

  std::string dir_;
};

/// Golden digests are a pure function of (zone template, K, cross-zone
/// rules) -- not of the engine configuration -- so one replay per K serves
/// every (algorithm, crash tick) case.
const std::vector<std::vector<uint64_t>>& GoldenForZones(uint32_t num_zones,
                                                         uint64_t world_ticks) {
  static std::map<uint32_t, std::vector<std::vector<uint64_t>>> cache;
  auto it = cache.find(num_zones);
  if (it == cache.end()) {
    GameShardAdapterConfig config;
    config.zone_world = TinyZone();
    config.engine.num_shards = num_zones;
    it = cache
             .emplace(num_zones,
                      GameShardAdapter::GoldenZoneDigests(config, world_ticks))
             .first;
  }
  EXPECT_GT(it->second.size(), world_ticks);
  return it->second;
}

// ---- The digest oracle itself ----

TEST(GameDigestTest, TableDigestMatchesLiveWorld) {
  WorldConfig config = TinyZone();
  World world(config);
  for (int t = 0; t < 5; ++t) world.Tick();
  // Copy the unit table into an engine StateTable cell by cell; the two
  // digest implementations must agree bit for bit.
  StateTable table(GameShardAdapter::ZoneLayout(config));
  for (UnitId u = 0; u < config.num_units; ++u) {
    for (uint32_t attr = 0; attr < kNumAttributes; ++attr) {
      table.WriteCell(u * kNumAttributes + attr, world.units().Get(u, attr));
    }
  }
  EXPECT_EQ(TableStateDigest(table, config.num_units), world.StateDigest());
  // And any single-cell difference must flip it.
  table.WriteCell(7 * kNumAttributes + kAttrHealth,
                  world.units().health(7) - 1);
  EXPECT_NE(TableStateDigest(table, config.num_units), world.StateDigest());
}

TEST(GameDigestTest, DigestIsOrderIndependentButValueSensitive) {
  UnitTable a(16), b(16);
  // Same per-unit states written in different orders digest equal...
  for (UnitId u = 0; u < 16; ++u) a.SetRaw(u, kAttrX, 100 + u);
  for (UnitId u = 16; u-- > 0;) b.SetRaw(u, kAttrX, 100 + u);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  // ...and swapping two units' states (a symmetric difference a plain sum
  // of raw values would cancel) does not.
  b.SetRaw(3, kAttrX, 100 + 4);
  b.SetRaw(4, kAttrX, 100 + 3);
  EXPECT_NE(a.StateDigest(), b.StateDigest());
}

TEST_F(GameShardConformanceTest, ParallelAndSequentialSteppingAreIdentical) {
  // The fork-join zone stepping must be bit-identical to the sequential
  // loop at every tick: zones share no mutable state, and cross-zone
  // effects land before the fork.
  for (const uint32_t num_zones : {2u, 4u}) {
    GameShardAdapterConfig parallel;
    parallel.zone_world = TinyZone();
    parallel.engine.num_shards = num_zones;
    parallel.parallel_step = true;
    GameShardAdapterConfig sequential = parallel;
    sequential.parallel_step = false;
    const auto a = GameShardAdapter::GoldenZoneDigests(parallel, 30);
    const auto b = GameShardAdapter::GoldenZoneDigests(sequential, 30);
    EXPECT_EQ(a, b) << "K=" << num_zones;
  }
}

TEST_F(GameShardConformanceTest, CrossZoneNewsChangesTheBattle) {
  // The tick-boundary cross-zone resolution must actually do something:
  // with war news disabled the zones play a different (still
  // deterministic) battle once combat produces kills.
  GameShardAdapterConfig with_news;
  with_news.zone_world = TinyZone();
  with_news.engine.num_shards = 2;
  GameShardAdapterConfig without_news = with_news;
  without_news.cross_zone = false;
  const auto a = GameShardAdapter::GoldenZoneDigests(with_news, 60);
  const auto b = GameShardAdapter::GoldenZoneDigests(without_news, 60);
  EXPECT_NE(a.back(), b.back())
      << "cross-zone morale effects never fired in 60 ticks";
}

// ---- Crash-at-every-tick conformance sweep ----

struct GameCrashCase {
  AlgorithmKind kind;
  uint32_t num_zones;
  uint64_t crash_tick;  // engine tick the fleet crashes after
};

class GameShardCrashRecoveryTest
    : public GameShardConformanceTest,
      public ::testing::WithParamInterface<GameCrashCase> {};

TEST_P(GameShardCrashRecoveryTest, RecoveredZonesMatchTheGoldenDigest) {
  const GameCrashCase param = GetParam();
  const auto config = Config(param.kind, param.num_zones);
  auto adapter_or = GameShardAdapter::Open(config);
  ASSERT_TRUE(adapter_or.ok()) << adapter_or.status().ToString();
  GameShardAdapter& adapter = *adapter_or.value();

  ASSERT_TRUE(adapter.RunTicks(param.crash_tick + 1).ok());
  ASSERT_TRUE(adapter.engine()->SimulateCrash().ok());

  // recovered_ticks = crash_tick + 1 engine ticks, of which tick 0 was the
  // bulk load: the recovered state is the world after crash_tick world
  // ticks.
  const uint64_t world_tick = param.crash_tick;
  const auto& golden = GoldenForZones(param.num_zones, kSweepTicks);
  auto recovered_or = Fleet::Recover(adapter.config().engine.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  const ShardedRecoveryResult& result = recovered_or->result().fleet;
  std::vector<StateTable>& recovered = recovered_or->tables();
  ASSERT_EQ(recovered.size(), param.num_zones);
  EXPECT_EQ(result.min_recovered_ticks, param.crash_tick + 1);
  EXPECT_EQ(result.max_recovered_ticks, param.crash_tick + 1);
  for (uint32_t z = 0; z < param.num_zones; ++z) {
    // The live world tracked the golden replay...
    ASSERT_EQ(adapter.ZoneDigest(z), golden[world_tick][z])
        << "zone " << z << " diverged from the golden replay (determinism "
        << "bug, not a recovery bug)";
    // ...and recovery must reproduce it exactly.
    EXPECT_EQ(TableStateDigest(recovered[z], config.zone_world.num_units),
              golden[world_tick][z])
        << AlgorithmName(param.kind) << " K=" << param.num_zones << " crash@"
        << param.crash_tick << ": zone " << z << " recovered wrong";
  }
}

std::vector<GameCrashCase> AllGameCrashCases() {
  std::vector<GameCrashCase> cases;
  // Both disk organizations (double backup and log), K in {1, 2, 4},
  // crash at EVERY engine tick.
  for (AlgorithmKind kind : {AlgorithmKind::kCopyOnUpdate,
                             AlgorithmKind::kCopyOnUpdatePartialRedo}) {
    for (uint32_t num_zones : {1u, 2u, 4u}) {
      for (uint64_t tick = 0; tick < kSweepTicks; ++tick) {
        cases.push_back({kind, num_zones, tick});
      }
    }
  }
  return cases;
}

std::string GameCrashCaseName(
    const ::testing::TestParamInfo<GameCrashCase>& info) {
  std::string name = std::string(GetTraits(info.param.kind).short_name) +
                     "_k" + std::to_string(info.param.num_zones) + "_tick" +
                     std::to_string(info.param.crash_tick);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(GameCrashPoints, GameShardCrashRecoveryTest,
                         ::testing::ValuesIn(AllGameCrashCases()),
                         GameCrashCaseName);

// ---- The CI conformance shard: K=2, longer run ----

TEST_F(GameShardConformanceTest, SoakK2LongRun) {
  // The long-run shard the CI matrix pins at ~200 ticks (TP_GAME_SOAK_TICKS;
  // 60 locally): many staggered checkpoint generations, full flushes, and
  // cross-zone traffic before the crash, then exact recovery of both zones.
  //
  // TP_GAME_SOAK_UNITS additionally scales the PER-ZONE population for the
  // nightly large-world variant (200064/zone makes the K=2 fleet exactly
  // the paper's Table-5 400,128 units, exercising object-level dirty
  // tracking under real update skew); the zone geometry grows to the full
  // Table-5 map so spawn density stays sane.
  uint64_t ticks = 60;
  if (const char* env = std::getenv("TP_GAME_SOAK_TICKS")) {
    const uint64_t parsed = std::strtoull(env, nullptr, 10);
    // 0 (also what garbage parses to) would underflow the golden-replay
    // bound below; keep the default instead of hanging the suite.
    if (parsed > 0) ticks = parsed;
  }
  auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
  if (const char* env = std::getenv("TP_GAME_SOAK_UNITS")) {
    const uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) {
      config.zone_world.num_units = static_cast<uint32_t>(parsed);
      config.zone_world.map_size = 4096;
      config.zone_world.bucket_shift = 6;
      config.zone_world.spawn_radius = 1400;
    }
  }
  auto adapter_or = GameShardAdapter::Open(config);
  ASSERT_TRUE(adapter_or.ok()) << adapter_or.status().ToString();
  GameShardAdapter& adapter = *adapter_or.value();
  ASSERT_TRUE(adapter.RunTicks(ticks).ok());
  ASSERT_TRUE(adapter.engine()->SimulateCrash().ok());

  // Independent golden replay of the same fleet seed.
  const auto golden = GameShardAdapter::GoldenZoneDigests(config, ticks - 1);
  auto recovered_or = Fleet::Recover(adapter.config().engine.shard.dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  std::vector<StateTable>& recovered = recovered_or->tables();
  EXPECT_EQ(recovered_or->result().fleet.min_recovered_ticks, ticks);
  for (uint32_t z = 0; z < 2; ++z) {
    EXPECT_EQ(TableStateDigest(recovered[z], config.zone_world.num_units),
              golden[ticks - 1][z])
        << "zone " << z;
  }
  // The run produced real checkpoint traffic, not just log replay.
  EXPECT_GE(adapter.engine()->CheckpointStats().checkpoints, 4u);
  EXPECT_GT(adapter.game_updates(), 0u);
}

// ---- Zone migration on the game workload ----

TEST_F(GameShardConformanceTest, MigrateZoneKeepsRecoveryExact) {
  // The MMOG zone hand-off: the Knights-and-Archers battle keeps playing
  // while zone 1's partition moves to a fresh shard slot at a committed
  // cut. The zone worlds follow their PARTITION (ids are stable across
  // the move), so recovery correctness stays one digest equality per
  // zone -- now across a fleet epoch boundary, via the no-config
  // manifest-driven recovery.
  const auto config = Config(AlgorithmKind::kCopyOnUpdate, 2);
  auto adapter_or = GameShardAdapter::Open(config);
  ASSERT_TRUE(adapter_or.ok()) << adapter_or.status().ToString();
  GameShardAdapter& adapter = *adapter_or.value();
  ASSERT_TRUE(adapter.RunTicks(4).ok());
  auto status = adapter.MigrateZone(1, 2);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(adapter.engine()->epoch(), 1u);
  EXPECT_EQ(adapter.engine()->SlotOfPartition(1), 2u);
  // The battle continues on the migrated fleet, then crashes.
  ASSERT_TRUE(adapter.RunTicks(6).ok());
  const uint64_t ticks = adapter.engine_ticks();
  ASSERT_TRUE(adapter.engine()->SimulateCrash().ok());

  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  RecoveredFleet& recovered = recovered_or.value();
  EXPECT_EQ(recovered.manifest().epoch, 1u);
  EXPECT_EQ(recovered.manifest().assignment,
            (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(recovered.result().fleet.min_recovered_ticks, ticks);
  const auto golden = GameShardAdapter::GoldenZoneDigests(config, ticks - 1);
  for (uint32_t z = 0; z < 2; ++z) {
    EXPECT_EQ(TableStateDigest(recovered.tables()[z],
                               config.zone_world.num_units),
              golden[ticks - 1][z])
        << "zone " << z << " recovered wrong across the migration";
  }
}

// ---- Seeded randomized game-crash fuzz ----

TEST_F(GameShardConformanceTest, SeededRandomizedGameCrashFuzz) {
  // Random (algorithm, K, parallel stepping, crash tick) shapes
  // against the digest oracle. The seed is printed via SCOPED_TRACE on any
  // failure; set TP_GAME_FUZZ_SEED to replay a reported failure exactly
  // (the TP_FLEET_FUZZ_SEED pattern from the sharded-engine fuzz).
  uint64_t seed;
  if (const char* env = std::getenv("TP_GAME_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  } else {
    std::random_device device;
    seed = (static_cast<uint64_t>(device()) << 32) ^ device();
  }
  SCOPED_TRACE("replay with TP_GAME_FUZZ_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  const AlgorithmKind kinds[] = {AlgorithmKind::kNaiveSnapshot,
                                 AlgorithmKind::kCopyOnUpdate,
                                 AlgorithmKind::kDribble,
                                 AlgorithmKind::kCopyOnUpdatePartialRedo};

  constexpr int kIterations = 5;
  for (int iter = 0; iter < kIterations; ++iter) {
    const AlgorithmKind kind = kinds[rng() % std::size(kinds)];
    const uint32_t num_zones = 1 + static_cast<uint32_t>(rng() % 4);
    const bool parallel_step = (rng() & 1) != 0;
    const uint64_t crash_tick = rng() % 14;
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " +
                 std::string(AlgorithmName(kind)) + " K=" +
                 std::to_string(num_zones) +
                 (parallel_step ? " parallel" : " sequential") + " crash@" +
                 std::to_string(crash_tick));

    auto config = Config(kind, num_zones);
    config.engine.shard.dir = dir_ + "/iter" + std::to_string(iter);
    config.parallel_step = parallel_step;
    auto adapter_or = GameShardAdapter::Open(config);
    ASSERT_TRUE(adapter_or.ok()) << adapter_or.status().ToString();
    GameShardAdapter& adapter = *adapter_or.value();
    ASSERT_TRUE(adapter.RunTicks(crash_tick + 1).ok());
    ASSERT_TRUE(adapter.engine()->SimulateCrash().ok());

    const auto golden =
        GameShardAdapter::GoldenZoneDigests(config, crash_tick);
    auto recovered_or = Fleet::Recover(adapter.config().engine.shard.dir);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    const ShardedRecoveryResult& result = recovered_or->result().fleet;
    std::vector<StateTable>& recovered = recovered_or->tables();
    EXPECT_EQ(result.min_recovered_ticks, crash_tick + 1);
    EXPECT_EQ(result.max_recovered_ticks, crash_tick + 1);
    for (uint32_t z = 0; z < num_zones; ++z) {
      EXPECT_EQ(TableStateDigest(recovered[z], config.zone_world.num_units),
                golden[crash_tick][z])
          << "zone " << z;
    }
  }
}

}  // namespace
}  // namespace game
}  // namespace tickpoint
