// Robustness of the fleet-manifest superblock (fleet_manifest.h): every
// way the durable fleet description can be damaged -- torn file, foreign
// bytes, bit rot, a future format version, an assignment that disagrees
// with the directory tree -- must surface a clean Status, never UB and
// never a silent misrecovery. Includes the migration crash window: with
// both the old and the new epoch's manifest on disk (retirement did not
// happen yet), recovery picks the newest; with the newest torn, it falls
// back to the previous epoch.
#include "engine/fleet_manifest.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/fleet.h"
#include "engine/paths.h"
#include "util/crc32.h"
#include "util/io_backend.h"
#include "util/io.h"

namespace tickpoint {
namespace {

class FleetManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    dir_ = (std::filesystem::temp_directory_path() / ("tp_manifest_" + name))
               .string();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(EnsureDirectory(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  FleetManifest Sample(uint64_t epoch = 0) {
    FleetManifest manifest;
    manifest.epoch = epoch;
    manifest.assignment = {0, 4, 2};  // a migrated topology
    ShardedEngineConfig& config = manifest.config;
    config.num_shards = 3;
    config.shard.layout = StateLayout::Small(512, 10);
    config.shard.algorithm = AlgorithmKind::kCopyOnUpdatePartialRedo;
    config.shard.full_flush_period = 5;
    config.shard.logical_sync_every = 2;
    config.shard.fsync = false;
    config.shard.checksum_state = true;
    config.checkpoint_period_ticks = 7;
    config.staggered = false;
    config.adaptive = true;
    config.disk_budget = 3;
    config.max_queue_ticks = 17;
    config.cut_lead_ticks = 4;
    config.replica_peer = {1, 2, 0};  // the default ring, as Create resolves
    return manifest;
  }

  std::string Path(uint64_t epoch) {
    return paths::FleetManifestPath(dir_, epoch);
  }

  /// Truncates the file at `path` to `bytes`.
  void Truncate(const std::string& path, uint64_t bytes) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(path, &contents).ok());
    ASSERT_LT(bytes, contents.size());
    contents.resize(bytes);
    ASSERT_TRUE(WriteStringToFile(path, contents).ok());
  }

  /// Rewrites the version-4 manifest at `path` (K partitions, no mount
  /// roots) in the layout of an older format `version` -- 1: header +
  /// assignment; 2: adds the replication extension and peers; 3: adds the
  /// mount-root lengths -- with its version and CRC re-stamped, as a fleet
  /// written by an older binary would carry it.
  void RewriteAsVersion(const std::string& path, uint32_t version,
                        size_t num_partitions) {
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
    const size_t kHeaderSize = 112, kExtSize = 16, kRetentionExtSize = 24;
    const size_t words = num_partitions * sizeof(uint32_t);
    ASSERT_EQ(bytes.size(),
              kHeaderSize + kExtSize + 3 * words + kRetentionExtSize + 4);
    std::string old;
    if (version == 1) {
      old = bytes.substr(0, kHeaderSize) +
            bytes.substr(kHeaderSize + kExtSize, words);
    } else {
      old = bytes.substr(0, kHeaderSize + kExtSize + (version - 1) * words);
    }
    std::memcpy(&old[8], &version, sizeof(version));
    const uint32_t crc = Crc32(old.data(), old.size());
    old.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    ASSERT_TRUE(WriteStringToFile(path, old).ok());
  }

  /// Flips one byte of the file at `path`.
  void FlipByte(const std::string& path, uint64_t offset) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(path, &contents).ok());
    ASSERT_LT(offset, contents.size());
    contents[offset] = static_cast<char>(contents[offset] ^ 0x5A);
    ASSERT_TRUE(WriteStringToFile(path, contents).ok());
  }

  std::string dir_;
};

TEST_F(FleetManifestTest, RoundTripsEveryField) {
  FleetManifest written = Sample(/*epoch=*/9);
  written.config.replicate = true;
  written.config.replica_depth = 48;
  written.config.shard.retention.enabled = true;
  written.config.shard.retention.max_generations = 5;
  written.config.shard.retention.max_retained_ticks = 40;
  ASSERT_TRUE(WriteFleetManifest(dir_, written, /*fsync=*/false).ok());
  auto read_or = ReadFleetManifestFile(Path(9));
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  const FleetManifest& read = read_or.value();
  const ShardedEngineConfig& config = read.config;
  EXPECT_EQ(read.epoch, 9u);
  EXPECT_EQ(config.num_shards, 3u);
  EXPECT_EQ(read.assignment, (std::vector<uint32_t>{0, 4, 2}));
  EXPECT_EQ(config.shard.layout.rows, written.config.shard.layout.rows);
  EXPECT_EQ(config.shard.layout.cols, written.config.shard.layout.cols);
  EXPECT_EQ(config.shard.layout.cell_size,
            written.config.shard.layout.cell_size);
  EXPECT_EQ(config.shard.layout.object_size,
            written.config.shard.layout.object_size);
  EXPECT_EQ(config.shard.algorithm, written.config.shard.algorithm);
  EXPECT_EQ(config.shard.full_flush_period, 5u);
  EXPECT_EQ(config.shard.logical_sync_every, 2u);
  EXPECT_FALSE(config.shard.fsync);
  EXPECT_TRUE(config.shard.checksum_state);
  EXPECT_EQ(config.shard.retention, written.config.shard.retention);
  EXPECT_EQ(config.checkpoint_period_ticks, 7u);
  EXPECT_FALSE(config.staggered);
  EXPECT_TRUE(config.adaptive);
  EXPECT_EQ(config.disk_budget, 3u);
  // Every fleet is threaded: the version-4 byte (offset 108 of the
  // 112-byte header) is written as 1 and not read back.
  EXPECT_TRUE(config.threaded);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(Path(9), &bytes).ok());
  ASSERT_GT(bytes.size(), 108u);
  EXPECT_EQ(bytes[108], 1);
  EXPECT_EQ(config.max_queue_ticks, 17u);
  EXPECT_EQ(config.cut_lead_ticks, 4u);
  EXPECT_TRUE(config.replicate);
  EXPECT_EQ(config.replica_depth, 48u);
  EXPECT_EQ(config.replica_peer, (std::vector<uint32_t>{1, 2, 0}));
  // Not persisted: the directory is the root the file lives in, and the
  // runtime knobs come back at their defaults.
  EXPECT_EQ(config.shard.dir, dir_);
  EXPECT_EQ(config.shard.io_backend, IoBackendKind::kAsync);
  EXPECT_FALSE(config.shard.manual_checkpoints);
  EXPECT_EQ(read.assignment, written.assignment);
  EXPECT_EQ(read.PartitionDir(dir_, 1), paths::ShardDir(dir_, 4));
}

TEST_F(FleetManifestTest, RoundTripsReplicationTopology) {
  FleetManifest written = Sample(/*epoch=*/2);
  written.config.replicate = true;
  written.config.replica_depth = 48;
  written.config.replica_peer = {2, 0, 1};  // reverse ring
  ASSERT_TRUE(WriteFleetManifest(dir_, written, /*fsync=*/false).ok());
  auto read_or = ReadFleetManifestFile(Path(2));
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  EXPECT_TRUE(read_or.value().config.replicate);
  EXPECT_EQ(read_or.value().config.replica_depth, 48u);
  EXPECT_EQ(read_or.value().config.replica_peer,
            (std::vector<uint32_t>{2, 0, 1}));

  // With replication off the peer vector is still written, so the record
  // length is a pure function of K -- and it reads back with the flag
  // correctly off.
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(3), false).ok());
  auto off_or = ReadFleetManifestFile(Path(3));
  ASSERT_TRUE(off_or.ok()) << off_or.status().ToString();
  EXPECT_FALSE(off_or.value().config.replicate);
  EXPECT_EQ(off_or.value().config.replica_peer,
            (std::vector<uint32_t>{1, 2, 0}));
}

TEST_F(FleetManifestTest, RoundTripsMountRoots) {
  // The v3 payload: a per-partition mount-point root, the durable record
  // of a rebalance that spawned a slot on another disk. PartitionDir must
  // resolve through it, and partitions without an override stay under the
  // fleet root.
  FleetManifest written = Sample(/*epoch=*/6);
  written.mount_root = {"", "/mnt/fast", ""};
  ASSERT_TRUE(WriteFleetManifest(dir_, written, /*fsync=*/false).ok());
  auto read_or = ReadFleetManifestFile(Path(6));
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  const FleetManifest& read = read_or.value();
  ASSERT_EQ(read.mount_root.size(), 3u);
  EXPECT_EQ(read.MountRootOf(0), "");
  EXPECT_EQ(read.MountRootOf(1), "/mnt/fast");
  EXPECT_EQ(read.PartitionDir(dir_, 1), paths::ShardDir("/mnt/fast", 4));
  EXPECT_EQ(read.PartitionDir(dir_, 0), paths::ShardDir(dir_, 0));
  EXPECT_EQ(read.PartitionDir(dir_, 2), paths::ShardDir(dir_, 2));
}

TEST_F(FleetManifestTest, ImplausibleMountRootLengthIsCorruption) {
  // Forge a mount length beyond the defensive bound (the write side
  // refuses to produce one) with a fixed-up CRC: the length guard must
  // reject it BEFORE trusting the length word to drive an allocation.
  const FleetManifest sample = Sample();
  ASSERT_TRUE(WriteFleetManifest(dir_, sample, false).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(Path(0), &bytes).ok());
  const size_t kHeaderSize = 112, kExtSize = 16;
  const size_t peers_bytes = sample.config.num_shards * sizeof(uint32_t);
  const size_t first_mount_len = kHeaderSize + kExtSize + 2 * peers_bytes;
  const uint32_t forged = 64 * 1024;  // > kMaxMountRootBytes
  std::memcpy(&bytes[first_mount_len], &forged, sizeof(forged));
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  std::memcpy(&bytes[bytes.size() - sizeof(uint32_t)], &crc, sizeof(crc));
  ASSERT_TRUE(WriteStringToFile(Path(0), bytes).ok());
  auto read_or = ReadFleetManifestFile(Path(0));
  EXPECT_EQ(read_or.status().code(), StatusCode::kCorruption);
  EXPECT_NE(read_or.status().message().find("mount root"),
            std::string::npos);
}

TEST_F(FleetManifestTest, StructurallyBadReplicationBytesAreCorruption) {
  // The read-side guards: depth 0 with the flag on, and a peer index
  // beyond the partition count, must both be Corruption (they can only
  // come from damaged or forged bytes -- Create/Open validate the knobs
  // before a manifest is ever written).
  FleetManifest manifest = Sample();
  manifest.config.replicate = true;
  manifest.config.replica_depth = 0;
  manifest.config.replica_peer = {1, 2, 0};
  ASSERT_TRUE(WriteFleetManifest(dir_, manifest, false).ok());
  auto read_or = ReadFleetManifestFile(Path(0));
  EXPECT_EQ(read_or.status().code(), StatusCode::kCorruption);
  EXPECT_NE(read_or.status().message().find("replica_depth"),
            std::string::npos);

  manifest.config.replica_depth = 32;
  manifest.config.replica_peer = {1, 2, 9};  // beyond num_shards
  ASSERT_TRUE(WriteFleetManifest(dir_, manifest, false).ok());
  EXPECT_EQ(ReadFleetManifestFile(Path(0)).status().code(),
            StatusCode::kCorruption);
}

TEST_F(FleetManifestTest, MissingManifestIsNotFound) {
  EXPECT_EQ(ReadFleetManifestFile(Path(0)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ReadNewestFleetManifest(dir_).status().code(),
            StatusCode::kNotFound);
  // A root that does not exist at all is equally NotFound, not UB.
  EXPECT_EQ(ReadNewestFleetManifest(dir_ + "/nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(FleetManifestTest, TornSuperblockIsCorruption) {
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(), false).ok());
  // Every prefix is a clean Corruption: inside the header, after the
  // header but inside the assignment, and just short of the CRC.
  for (const uint64_t bytes : {5ull, 30ull, 113ull, 123ull}) {
    SCOPED_TRACE("truncated to " + std::to_string(bytes));
    ASSERT_TRUE(WriteFleetManifest(dir_, Sample(), false).ok());
    Truncate(Path(0), bytes);
    EXPECT_EQ(ReadFleetManifestFile(Path(0)).status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(ReadNewestFleetManifest(dir_).status().code(),
              StatusCode::kCorruption);
  }
}

TEST_F(FleetManifestTest, WrongMagicIsCorruption) {
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(), false).ok());
  FlipByte(Path(0), 0);  // inside the magic
  auto read_or = ReadFleetManifestFile(Path(0));
  EXPECT_EQ(read_or.status().code(), StatusCode::kCorruption);
  EXPECT_NE(read_or.status().message().find("magic"), std::string::npos);
}

TEST_F(FleetManifestTest, BitRotFailsTheCrc) {
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(), false).ok());
  FlipByte(Path(0), 40);  // a layout field: magic/version stay intact
  EXPECT_EQ(ReadFleetManifestFile(Path(0)).status().code(),
            StatusCode::kCorruption);
}

TEST_F(FleetManifestTest, FutureVersionIsARefusalNotCorruption) {
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(), false).ok());
  // Version lives at offset 8 (after the 8-byte magic). Bump it and fix
  // nothing else: a future version must be refused BEFORE the CRC check,
  // since a newer format may have moved the CRC itself.
  FlipByte(Path(0), 8);
  auto read_or = ReadFleetManifestFile(Path(0));
  EXPECT_EQ(read_or.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(read_or.status().message().find("version"), std::string::npos);
  // And the newest-first scan must NOT silently fall back past it to an
  // older epoch: a half-upgraded fleet is an operator problem, not a
  // recovery fallback.
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(0), false).ok());
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(1), false).ok());
  FlipByte(Path(1), 8);  // the NEWEST epoch claims a future version
  EXPECT_EQ(ReadNewestFleetManifest(dir_).status().code(),
            StatusCode::kFailedPrecondition);
  // Older formats are refused the same way: a well-formed, CRC-valid file
  // of version 1, 2 or 3 is never read, and never skipped for epoch 0.
  for (const uint32_t version : {1u, 2u, 3u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    ASSERT_TRUE(WriteFleetManifest(dir_, Sample(1), false).ok());
    RewriteAsVersion(Path(1), version, Sample().config.num_shards);
    auto old_or = ReadFleetManifestFile(Path(1));
    EXPECT_EQ(old_or.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(old_or.status().message().find("version"), std::string::npos);
    EXPECT_EQ(ReadNewestFleetManifest(dir_).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST_F(FleetManifestTest, DuplicateSlotAssignmentIsCorruption) {
  FleetManifest manifest = Sample();
  manifest.assignment = {1, 1, 2};  // two partitions on one shard slot
  ASSERT_TRUE(WriteFleetManifest(dir_, manifest, false).ok());
  auto read_or = ReadFleetManifestFile(Path(0));
  EXPECT_EQ(read_or.status().code(), StatusCode::kCorruption);
  EXPECT_NE(read_or.status().message().find("two partitions"),
            std::string::npos);
}

TEST_F(FleetManifestTest, MigrationCrashWindowPicksTheNewestEpoch) {
  // The commit protocol writes fleet-manifest-<E+1> and only then retires
  // fleet-manifest-<E>; a crash in between leaves both. Recovery must act
  // under E+1.
  FleetManifest old_epoch = Sample(4);
  FleetManifest new_epoch = Sample(5);
  new_epoch.assignment = {0, 4, 7};  // the migration epoch 5 committed
  ASSERT_TRUE(WriteFleetManifest(dir_, old_epoch, false).ok());
  ASSERT_TRUE(WriteFleetManifest(dir_, new_epoch, false).ok());
  auto read_or = ReadNewestFleetManifest(dir_);
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  EXPECT_EQ(read_or.value().epoch, 5u);
  EXPECT_EQ(read_or.value().assignment, (std::vector<uint32_t>{0, 4, 7}));
  EXPECT_EQ(ListFleetManifestEpochs(dir_),
            (std::vector<uint64_t>{5, 4}));
}

TEST_F(FleetManifestTest, TornNewestEpochFallsBackToThePrevious) {
  // The other half of the window: the new epoch's file is damaged (it can
  // only be a real corruption -- the tmp+rename publish never leaves a
  // torn file under the committed name). The previous epoch still
  // describes a recoverable fleet; use it rather than refusing.
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(4), false).ok());
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(5), false).ok());
  Truncate(Path(5), 60);
  auto read_or = ReadNewestFleetManifest(dir_);
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  EXPECT_EQ(read_or.value().epoch, 4u);
  // With EVERY epoch torn, the newest file's own error surfaces.
  Truncate(Path(4), 60);
  EXPECT_EQ(ReadNewestFleetManifest(dir_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(FleetManifestTest, RetireSweepsOnlyOlderEpochs) {
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(1), false).ok());
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(3), false).ok());
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(7), false).ok());
  ASSERT_TRUE(RetireFleetManifestsBefore(dir_, 7).ok());
  EXPECT_EQ(ListFleetManifestEpochs(dir_), (std::vector<uint64_t>{7}));
}

TEST_F(FleetManifestTest, RetireSweepsOrphanedTempFiles) {
  // A crash inside WriteFleetManifest (before its rename) orphans the
  // .tmp; the next retirement must sweep it, while unrelated files
  // survive.
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(5), false).ok());
  ASSERT_TRUE(
      WriteStringToFile(Path(4) + ".tmp", "torn half-written manifest")
          .ok());
  ASSERT_TRUE(WriteStringToFile(dir_ + "/unrelated.tmp", "keep me").ok());
  ASSERT_TRUE(RetireFleetManifestsBefore(dir_, 5).ok());
  EXPECT_FALSE(FileExists(Path(4) + ".tmp"));
  EXPECT_TRUE(FileExists(dir_ + "/unrelated.tmp"));
  EXPECT_EQ(ListFleetManifestEpochs(dir_), (std::vector<uint64_t>{5}));
}

TEST_F(FleetManifestTest, ManifestDirectoryMismatchIsCorruption) {
  // The superblock says partition 1 lives in shard-4; nothing under the
  // root does. Fleet recovery must report the disagreement instead of
  // "recovering" a zeroed partition from a directory that is not there.
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(), false).ok());
  ASSERT_TRUE(EnsureDirectory(paths::ShardDir(dir_, 0)).ok());
  ASSERT_TRUE(EnsureDirectory(paths::ShardDir(dir_, 2)).ok());
  auto recovered_or = Fleet::Recover(dir_);
  ASSERT_FALSE(recovered_or.ok());
  EXPECT_EQ(recovered_or.status().code(), StatusCode::kCorruption);
  EXPECT_NE(recovered_or.status().message().find("shard-4"),
            std::string::npos);
}

TEST_F(FleetManifestTest, RecoveryRefusesAFutureVersionManifest) {
  // Regression: fleet recovery must not treat a manifest in another format
  // (FailedPrecondition from the read) like a missing one -- a newer
  // binary may have migrated partitions, and guessing a topology would
  // silently resurrect pre-migration state. Both recovery entry points
  // must surface the refusal.
  ShardedEngineConfig config;
  config.shard.layout = StateLayout::Small(256, 10);
  config.shard.fsync = false;
  config.num_shards = 2;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ASSERT_TRUE(fleet_or.value()->Shutdown().ok());
  }
  std::string epoch0;
  ASSERT_TRUE(ReadFileToString(Path(0), &epoch0).ok());
  FlipByte(Path(0), 8);  // version byte: now claims a future format
  EXPECT_EQ(Fleet::Recover(dir_).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Fleet::RecoverToCut(dir_).status().code(),
            StatusCode::kFailedPrecondition);
  // An older format in the newest epoch is refused too, even with an
  // intact epoch 0 behind it that recovery could fall back to.
  ASSERT_TRUE(WriteStringToFile(Path(0), epoch0).ok());
  ASSERT_TRUE(Fleet::Recover(dir_).ok());
  for (const uint32_t version : {1u, 2u, 3u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    auto manifest_or = ReadNewestFleetManifest(dir_);
    ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().ToString();
    FleetManifest newer = manifest_or.value();
    newer.epoch = 1;
    ASSERT_TRUE(WriteFleetManifest(dir_, newer, /*fsync=*/false).ok());
    RewriteAsVersion(Path(1), version, config.num_shards);
    EXPECT_EQ(Fleet::Recover(dir_).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(Fleet::RecoverToCut(dir_).status().code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE(std::filesystem::remove(Path(1)));
  }
}

TEST_F(FleetManifestTest, FleetOpenSurfacesManifestDamageCleanly) {
  // End-to-end: a real fleet whose superblock is then torn. Open must
  // fail with Corruption -- not guess a topology, not crash.
  ShardedEngineConfig config;
  config.shard.layout = StateLayout::Small(256, 10);
  config.shard.fsync = false;
  config.num_shards = 2;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    ASSERT_TRUE(fleet_or.value()->Shutdown().ok());
  }
  Truncate(Path(0), 50);
  EXPECT_EQ(Fleet::Open(dir_).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace tickpoint
