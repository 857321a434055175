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
    manifest.num_partitions = 3;
    manifest.assignment = {0, 4, 2};  // a migrated topology
    manifest.layout = StateLayout::Small(512, 10);
    manifest.algorithm = AlgorithmKind::kCopyOnUpdatePartialRedo;
    manifest.full_flush_period = 5;
    manifest.logical_sync_every = 2;
    manifest.fsync = false;
    manifest.checksum_state = true;
    manifest.checkpoint_period_ticks = 7;
    manifest.staggered = false;
    manifest.adaptive = true;
    manifest.disk_budget = 3;
    manifest.threaded = false;
    manifest.max_queue_ticks = 17;
    manifest.cut_lead_ticks = 4;
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
  const FleetManifest written = Sample(/*epoch=*/9);
  ASSERT_TRUE(WriteFleetManifest(dir_, written, /*fsync=*/false).ok());
  auto read_or = ReadFleetManifestFile(Path(9));
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  const FleetManifest& read = read_or.value();
  EXPECT_EQ(read.epoch, 9u);
  EXPECT_EQ(read.num_partitions, 3u);
  EXPECT_EQ(read.assignment, (std::vector<uint32_t>{0, 4, 2}));
  EXPECT_EQ(read.layout.rows, written.layout.rows);
  EXPECT_EQ(read.layout.cols, written.layout.cols);
  EXPECT_EQ(read.layout.cell_size, written.layout.cell_size);
  EXPECT_EQ(read.layout.object_size, written.layout.object_size);
  EXPECT_EQ(read.algorithm, written.algorithm);
  EXPECT_EQ(read.full_flush_period, 5u);
  EXPECT_EQ(read.logical_sync_every, 2u);
  EXPECT_FALSE(read.fsync);
  EXPECT_TRUE(read.checksum_state);
  EXPECT_EQ(read.checkpoint_period_ticks, 7u);
  EXPECT_FALSE(read.staggered);
  EXPECT_TRUE(read.adaptive);
  EXPECT_EQ(read.disk_budget, 3u);
  EXPECT_FALSE(read.threaded);
  EXPECT_EQ(read.max_queue_ticks, 17u);
  EXPECT_EQ(read.cut_lead_ticks, 4u);
  EXPECT_EQ(read.assignment, written.assignment);
  EXPECT_EQ(read.PartitionDir(dir_, 1), paths::ShardDir(dir_, 4));
}

TEST_F(FleetManifestTest, RoundTripsReplicationTopology) {
  FleetManifest written = Sample(/*epoch=*/2);
  written.replicate = true;
  written.replica_depth = 48;
  written.replica_peer = {2, 0, 1};  // reverse ring
  ASSERT_TRUE(WriteFleetManifest(dir_, written, /*fsync=*/false).ok());
  auto read_or = ReadFleetManifestFile(Path(2));
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  EXPECT_TRUE(read_or.value().replicate);
  EXPECT_EQ(read_or.value().replica_depth, 48u);
  EXPECT_EQ(read_or.value().replica_peer, (std::vector<uint32_t>{2, 0, 1}));

  // With replication off, an empty peer vector is still written resolved
  // (the default ring) so the record length is a pure function of K --
  // and it reads back with the flag correctly off.
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(3), false).ok());
  auto off_or = ReadFleetManifestFile(Path(3));
  ASSERT_TRUE(off_or.ok()) << off_or.status().ToString();
  EXPECT_FALSE(off_or.value().replicate);
  EXPECT_EQ(off_or.value().replica_peer, (std::vector<uint32_t>{1, 2, 0}));
}

TEST_F(FleetManifestTest, ReadsAVersionOneManifestWithReplicationOff) {
  // Backward compatibility: a fleet created before the replication era
  // carries a v1 superblock -- 112-byte header + assignment + CRC, no
  // extension, no peer vector. Synthesize one from a real v2 file by
  // stripping the v2 payload and re-stamping version + CRC at their
  // frozen offsets (8 and end-of-file), then prove it reads back with
  // replication off and every other field intact.
  const FleetManifest sample = Sample();
  ASSERT_TRUE(WriteFleetManifest(dir_, sample, false).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(Path(0), &bytes).ok());
  const size_t kHeaderSize = 112, kExtSize = 16, kRetentionExtSize = 24;
  const size_t peers_bytes = sample.num_partitions * sizeof(uint32_t);
  // v4 layout: header + ext + assignment + replica peers + one u32 mount
  // length per partition (all zero here) + retention ext + CRC.
  ASSERT_EQ(bytes.size(),
            kHeaderSize + kExtSize + 3 * peers_bytes + kRetentionExtSize + 4);
  std::string v1 = bytes.substr(0, kHeaderSize) +
                   bytes.substr(kHeaderSize + kExtSize, peers_bytes);
  const uint32_t version = 1;
  std::memcpy(&v1[8], &version, sizeof(version));
  const uint32_t crc = Crc32(v1.data(), v1.size());
  v1.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_TRUE(WriteStringToFile(Path(0), v1).ok());

  auto read_or = ReadFleetManifestFile(Path(0));
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  const FleetManifest& read = read_or.value();
  EXPECT_FALSE(read.replicate);
  EXPECT_TRUE(read.replica_peer.empty());
  EXPECT_EQ(read.num_partitions, 3u);
  EXPECT_EQ(read.assignment, (std::vector<uint32_t>{0, 4, 2}));
  EXPECT_EQ(read.checkpoint_period_ticks, 7u);
  EXPECT_EQ(read.algorithm, sample.algorithm);
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

TEST_F(FleetManifestTest, ReadsAVersionTwoManifestWithoutMountRoots) {
  // Backward compatibility with the replication-era format: synthesize a
  // v2 file from a real v3 one by stripping the mount-length section and
  // re-stamping version + CRC. It must read back with every partition
  // under the fleet root.
  const FleetManifest sample = Sample();
  ASSERT_TRUE(WriteFleetManifest(dir_, sample, false).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(Path(0), &bytes).ok());
  const size_t kHeaderSize = 112, kExtSize = 16, kRetentionExtSize = 24;
  const size_t peers_bytes = sample.num_partitions * sizeof(uint32_t);
  ASSERT_EQ(bytes.size(),
            kHeaderSize + kExtSize + 3 * peers_bytes + kRetentionExtSize + 4);
  std::string v2 =
      bytes.substr(0, kHeaderSize + kExtSize + 2 * peers_bytes);
  const uint32_t version = 2;
  std::memcpy(&v2[8], &version, sizeof(version));
  const uint32_t crc = Crc32(v2.data(), v2.size());
  v2.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_TRUE(WriteStringToFile(Path(0), v2).ok());

  auto read_or = ReadFleetManifestFile(Path(0));
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  EXPECT_TRUE(read_or.value().mount_root.empty());
  EXPECT_EQ(read_or.value().assignment, (std::vector<uint32_t>{0, 4, 2}));
  EXPECT_EQ(read_or.value().PartitionDir(dir_, 1), paths::ShardDir(dir_, 4));
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
  const size_t peers_bytes = sample.num_partitions * sizeof(uint32_t);
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
  manifest.replicate = true;
  manifest.replica_depth = 0;
  manifest.replica_peer = {1, 2, 0};
  ASSERT_TRUE(WriteFleetManifest(dir_, manifest, false).ok());
  auto read_or = ReadFleetManifestFile(Path(0));
  EXPECT_EQ(read_or.status().code(), StatusCode::kCorruption);
  EXPECT_NE(read_or.status().message().find("replica_depth"),
            std::string::npos);

  manifest.replica_depth = 32;
  manifest.replica_peer = {1, 2, 9};  // beyond num_partitions
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
  // Regression: fleet recovery must not treat a future-version manifest
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
  FlipByte(Path(0), 8);  // version byte: now claims a future format
  EXPECT_EQ(Fleet::Recover(dir_).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Fleet::RecoverToCut(dir_).status().code(),
            StatusCode::kFailedPrecondition);
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
