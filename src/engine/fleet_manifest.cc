#include "engine/fleet_manifest.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <unordered_set>

#include "engine/paths.h"
#include "util/crc32.h"
#include "util/io.h"

namespace tickpoint {
namespace {

constexpr uint64_t kFleetMagic = 0x544B5054464C5431ULL;  // "TKPTFLT1"
// v2 (replication era): the 16-byte extension below plus a replica_peer
// u32 per partition after the assignment. v1 files (no extension, no
// peers) still read back, with replication off.
// v3 (rebalancing era): a length-prefixed mount-root string per partition
// after the peers, so a migrated partition can live on a different disk.
// v1/v2 files read back with every partition under the fleet root.
// v4 (point-in-time recovery era): the 24-byte retention extension after
// the mount roots, carrying the history RetentionPolicy durably. v1-v3
// files read back with retention off.
constexpr uint32_t kFleetVersion = 4;
/// Defensive bound on K when reading untrusted bytes: a corrupt
/// num_partitions must not drive a multi-gigabyte allocation.
constexpr uint32_t kMaxPartitions = 65536;
/// Defensive bound on one mount-root path when reading untrusted bytes.
constexpr uint32_t kMaxMountRootBytes = 4096;

/// The fixed-size half of the on-disk format. Field order is chosen so the
/// struct has no padding holes (static_assert below): the CRC covers raw
/// bytes, so every byte must be deterministic.
struct ManifestHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t num_partitions = 0;
  uint64_t epoch = 0;
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t object_size = 0;
  uint32_t cell_size = 0;
  uint32_t algorithm = 0;
  uint32_t disk_organization = 0;
  uint32_t disk_budget = 0;
  uint64_t full_flush_period = 0;
  uint64_t logical_sync_every = 0;
  uint64_t checkpoint_period_ticks = 0;
  uint64_t max_queue_ticks = 0;
  uint64_t cut_lead_ticks = 0;
  uint8_t fsync = 0;
  uint8_t checksum_state = 0;
  uint8_t staggered = 0;
  uint8_t adaptive = 0;
  uint8_t threaded = 0;
  uint8_t reserved[3] = {0, 0, 0};
};
static_assert(sizeof(ManifestHeader) == 112,
              "ManifestHeader must stay padding-free: the CRC covers raw "
              "bytes");

/// The v2 extension, written (and CRC'd) immediately after ManifestHeader.
/// A separate struct rather than new ManifestHeader fields so v1 files --
/// whose CRC covers exactly the 112 header bytes plus the assignment --
/// keep reading back byte-for-byte.
struct ManifestHeaderV2Ext {
  uint64_t replica_depth = 0;
  uint8_t replicate = 0;
  uint8_t reserved[7] = {0, 0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(ManifestHeaderV2Ext) == 16,
              "ManifestHeaderV2Ext must stay padding-free: the CRC covers "
              "raw bytes");

/// The v4 extension, written (and CRC'd) after the mount-root strings: the
/// durable form of RetentionPolicy (engine/history.h). Trailing so v3
/// files keep reading back byte-for-byte.
struct ManifestHeaderV4Ext {
  uint64_t max_generations = 0;
  uint64_t max_retained_ticks = 0;
  uint8_t retention_enabled = 0;
  uint8_t reserved[7] = {0, 0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(ManifestHeaderV4Ext) == 24,
              "ManifestHeaderV4Ext must stay padding-free: the CRC covers "
              "raw bytes");

Status ValidateManifest(const FleetManifest& manifest,
                        const std::string& path) {
  if (manifest.num_partitions == 0 ||
      manifest.num_partitions > kMaxPartitions) {
    return Status::Corruption("fleet manifest " + path +
                              " records an implausible partition count " +
                              std::to_string(manifest.num_partitions));
  }
  if (manifest.assignment.size() != manifest.num_partitions) {
    return Status::Corruption("fleet manifest " + path +
                              " assignment size mismatch");
  }
  std::unordered_set<uint32_t> slots;
  for (const uint32_t slot : manifest.assignment) {
    if (!slots.insert(slot).second) {
      return Status::Corruption("fleet manifest " + path +
                                " assigns two partitions to shard slot " +
                                std::to_string(slot));
    }
  }
  if (!manifest.layout.Valid()) {
    return Status::Corruption("fleet manifest " + path +
                              " records an invalid state layout");
  }
  if (manifest.algorithm > AlgorithmKind::kCopyOnUpdatePartialRedo) {
    return Status::Corruption("fleet manifest " + path +
                              " records an unknown algorithm");
  }
  if (manifest.replicate) {
    // Structural bounds only (untrusted bytes must not drive out-of-range
    // indexing later); semantic knob validation -- self-peering included --
    // is ShardedEngine::OpenImpl's InvalidArgument, like every other knob.
    if (manifest.replica_depth == 0) {
      return Status::Corruption("fleet manifest " + path +
                                " enables replication with replica_depth 0");
    }
    if (manifest.replica_peer.size() != manifest.num_partitions) {
      return Status::Corruption("fleet manifest " + path +
                                " replica_peer size mismatch");
    }
    for (const uint32_t peer : manifest.replica_peer) {
      if (peer >= manifest.num_partitions) {
        return Status::Corruption(
            "fleet manifest " + path + " names replica peer " +
            std::to_string(peer) + " beyond its partition count");
      }
    }
  }
  if (!manifest.mount_root.empty() &&
      manifest.mount_root.size() != manifest.num_partitions) {
    return Status::Corruption("fleet manifest " + path +
                              " mount_root size mismatch");
  }
  for (const std::string& mount : manifest.mount_root) {
    if (mount.size() > kMaxMountRootBytes) {
      return Status::Corruption("fleet manifest " + path +
                                " records an implausibly long mount root");
    }
  }
  if (!manifest.retention.Valid()) {
    return Status::Corruption("fleet manifest " + path +
                              " enables history retention with "
                              "max_generations 0");
  }
  return Status::OK();
}

}  // namespace

std::string FleetManifest::PartitionDir(const std::string& root,
                                        uint32_t partition) const {
  TP_CHECK(partition < assignment.size());
  return paths::SlotDir(root, MountRootOf(partition), assignment[partition]);
}

std::string FleetManifest::MountRootOf(uint32_t partition) const {
  TP_CHECK(partition < assignment.size());
  if (mount_root.empty()) return "";
  TP_CHECK(mount_root.size() == assignment.size());
  return mount_root[partition];
}

Status WriteFleetManifest(const std::string& root,
                          const FleetManifest& manifest, bool fsync) {
  const std::string path = paths::FleetManifestPath(root, manifest.epoch);
  const std::string tmp = path + ".tmp";
  {
    FileWriter writer;
    TP_RETURN_NOT_OK(writer.Open(tmp));
    ManifestHeader header;
    header.magic = kFleetMagic;
    header.version = kFleetVersion;
    header.num_partitions = manifest.num_partitions;
    header.epoch = manifest.epoch;
    header.rows = manifest.layout.rows;
    header.cols = manifest.layout.cols;
    header.object_size = manifest.layout.object_size;
    header.cell_size = manifest.layout.cell_size;
    header.algorithm = static_cast<uint32_t>(manifest.algorithm);
    header.disk_organization =
        static_cast<uint32_t>(GetTraits(manifest.algorithm).disk);
    header.disk_budget = manifest.disk_budget;
    header.full_flush_period = manifest.full_flush_period;
    header.logical_sync_every = manifest.logical_sync_every;
    header.checkpoint_period_ticks = manifest.checkpoint_period_ticks;
    header.max_queue_ticks = manifest.max_queue_ticks;
    header.cut_lead_ticks = manifest.cut_lead_ticks;
    header.fsync = manifest.fsync ? 1 : 0;
    header.checksum_state = manifest.checksum_state ? 1 : 0;
    header.staggered = manifest.staggered ? 1 : 0;
    header.adaptive = manifest.adaptive ? 1 : 0;
    header.threaded = manifest.threaded ? 1 : 0;
    TP_RETURN_NOT_OK(writer.Append(&header, sizeof(header)));
    uint32_t crc = Crc32(&header, sizeof(header));
    ManifestHeaderV2Ext ext;
    ext.replica_depth = manifest.replica_depth;
    ext.replicate = manifest.replicate ? 1 : 0;
    TP_RETURN_NOT_OK(writer.Append(&ext, sizeof(ext)));
    crc = Crc32(&ext, sizeof(ext), crc);
    for (const uint32_t slot : manifest.assignment) {
      TP_RETURN_NOT_OK(writer.Append(&slot, sizeof(slot)));
      crc = Crc32(&slot, sizeof(slot), crc);
    }
    // The peer vector is written resolved even with replication off (the
    // replicate flag gates its meaning), so the v2 record length is a pure
    // function of num_partitions. An empty vector resolves to the default
    // ring here, keeping non-replicated construction sites unchanged.
    std::vector<uint32_t> peers = manifest.replica_peer;
    if (peers.empty()) {
      peers.resize(manifest.num_partitions);
      for (uint32_t p = 0; p < manifest.num_partitions; ++p) {
        peers[p] = (p + 1) % std::max<uint32_t>(1, manifest.num_partitions);
      }
    }
    TP_CHECK(peers.size() == manifest.num_partitions);
    for (const uint32_t peer : peers) {
      TP_RETURN_NOT_OK(writer.Append(&peer, sizeof(peer)));
      crc = Crc32(&peer, sizeof(peer), crc);
    }
    // v3: one length-prefixed mount-root string per partition. An empty
    // manifest vector writes num_partitions empty strings, so the record
    // shape never depends on whether any override is actually set.
    TP_CHECK(manifest.mount_root.empty() ||
             manifest.mount_root.size() == manifest.num_partitions);
    for (uint32_t p = 0; p < manifest.num_partitions; ++p) {
      const std::string mount =
          manifest.mount_root.empty() ? std::string() : manifest.mount_root[p];
      TP_CHECK(mount.size() <= kMaxMountRootBytes);
      const uint32_t len = static_cast<uint32_t>(mount.size());
      TP_RETURN_NOT_OK(writer.Append(&len, sizeof(len)));
      crc = Crc32(&len, sizeof(len), crc);
      if (len > 0) {
        TP_RETURN_NOT_OK(writer.Append(mount.data(), len));
        crc = Crc32(mount.data(), len, crc);
      }
    }
    // v4: the retention policy, written unconditionally (disabled policies
    // serialize their knobs too, so toggling retention never changes the
    // record shape).
    ManifestHeaderV4Ext retention_ext;
    retention_ext.max_generations = manifest.retention.max_generations;
    retention_ext.max_retained_ticks = manifest.retention.max_retained_ticks;
    retention_ext.retention_enabled = manifest.retention.enabled ? 1 : 0;
    TP_RETURN_NOT_OK(writer.Append(&retention_ext, sizeof(retention_ext)));
    crc = Crc32(&retention_ext, sizeof(retention_ext), crc);
    TP_RETURN_NOT_OK(writer.Append(&crc, sizeof(crc)));
    TP_RETURN_NOT_OK(fsync ? writer.Sync() : writer.Flush());
    TP_RETURN_NOT_OK(writer.Close());
  }
  // The rename is the epoch's commit point; the directory fsync makes the
  // commit itself durable. The PREVIOUS epoch's file is untouched here --
  // retirement is a separate, later step, so a crash in between leaves
  // both epochs readable and recovery picks the newest.
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("commit fleet manifest " + path + ": " +
                           ec.message());
  }
  if (fsync) {
    TP_RETURN_NOT_OK(SyncDirectory(root));
  }
  return Status::OK();
}

StatusOr<FleetManifest> ReadFleetManifestFile(const std::string& path) {
  if (!FileExists(path)) {
    return Status::NotFound("no fleet manifest at " + path);
  }
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(path));
  TP_ASSIGN_OR_RETURN(const uint64_t size, reader.Size());
  ManifestHeader header;
  if (size < sizeof(header) + sizeof(uint32_t)) {
    return Status::Corruption("fleet manifest " + path + " is truncated");
  }
  TP_RETURN_NOT_OK(reader.ReadExact(&header, sizeof(header)));
  if (header.magic != kFleetMagic) {
    return Status::Corruption("fleet manifest " + path + " has a bad magic");
  }
  if (header.version > kFleetVersion) {
    // Deliberately NOT Corruption: recovery must refuse, not fall back to
    // an older epoch, when the fleet was written by a newer binary.
    return Status::FailedPrecondition(
        "fleet manifest " + path + " has format version " +
        std::to_string(header.version) + "; this binary understands up to " +
        std::to_string(kFleetVersion));
  }
  if (header.version == 0) {
    return Status::Corruption("fleet manifest " + path +
                              " has version 0 (torn header?)");
  }
  if (header.num_partitions == 0 || header.num_partitions > kMaxPartitions) {
    return Status::Corruption("fleet manifest " + path +
                              " records an implausible partition count " +
                              std::to_string(header.num_partitions));
  }
  // v1: header + assignment + CRC. v2 adds the 16-byte extension and one
  // replica_peer u32 per partition. v3 adds one length-prefixed mount-root
  // string per partition (variable length; `expected` counts the length
  // words only, the minimum, and ReadExact catches a body truncated
  // mid-string).
  const bool v2 = header.version >= 2;
  const bool v3 = header.version >= 3;
  const bool v4 = header.version >= 4;
  const uint64_t expected =
      sizeof(header) + (v2 ? sizeof(ManifestHeaderV2Ext) : 0) +
      header.num_partitions * sizeof(uint32_t) *
          ((v2 ? 2 : 1) + (v3 ? 1 : 0)) +
      (v4 ? sizeof(ManifestHeaderV4Ext) : 0) + sizeof(uint32_t);
  if (size < expected) {
    return Status::Corruption("fleet manifest " + path + " is truncated");
  }
  uint32_t crc = Crc32(&header, sizeof(header));
  ManifestHeaderV2Ext ext;
  if (v2) {
    TP_RETURN_NOT_OK(reader.ReadExact(&ext, sizeof(ext)));
    crc = Crc32(&ext, sizeof(ext), crc);
  }
  FleetManifest manifest;
  manifest.epoch = header.epoch;
  manifest.num_partitions = header.num_partitions;
  manifest.layout.rows = header.rows;
  manifest.layout.cols = header.cols;
  manifest.layout.object_size = header.object_size;
  manifest.layout.cell_size = header.cell_size;
  manifest.algorithm = static_cast<AlgorithmKind>(header.algorithm);
  manifest.disk_budget = header.disk_budget;
  manifest.full_flush_period = header.full_flush_period;
  manifest.logical_sync_every = header.logical_sync_every;
  manifest.checkpoint_period_ticks = header.checkpoint_period_ticks;
  manifest.max_queue_ticks = header.max_queue_ticks;
  manifest.cut_lead_ticks = header.cut_lead_ticks;
  manifest.fsync = header.fsync != 0;
  manifest.checksum_state = header.checksum_state != 0;
  manifest.staggered = header.staggered != 0;
  manifest.adaptive = header.adaptive != 0;
  manifest.threaded = header.threaded != 0;
  manifest.assignment.resize(header.num_partitions);
  for (uint32_t& slot : manifest.assignment) {
    TP_RETURN_NOT_OK(reader.ReadExact(&slot, sizeof(slot)));
    crc = Crc32(&slot, sizeof(slot), crc);
  }
  if (v2) {
    manifest.replicate = ext.replicate != 0;
    manifest.replica_depth = ext.replica_depth;
    manifest.replica_peer.resize(header.num_partitions);
    for (uint32_t& peer : manifest.replica_peer) {
      TP_RETURN_NOT_OK(reader.ReadExact(&peer, sizeof(peer)));
      crc = Crc32(&peer, sizeof(peer), crc);
    }
  } else {
    // A pre-replication fleet: resumes with replication off (the struct
    // defaults say depth 32, but nothing consumes it while !replicate).
    manifest.replicate = false;
    manifest.replica_peer.clear();
  }
  if (v3) {
    manifest.mount_root.resize(header.num_partitions);
    for (std::string& mount : manifest.mount_root) {
      uint32_t len = 0;
      TP_RETURN_NOT_OK(reader.ReadExact(&len, sizeof(len)));
      crc = Crc32(&len, sizeof(len), crc);
      if (len > kMaxMountRootBytes) {
        return Status::Corruption("fleet manifest " + path +
                                  " records an implausibly long mount root");
      }
      if (len > 0) {
        mount.resize(len);
        TP_RETURN_NOT_OK(reader.ReadExact(mount.data(), len));
        crc = Crc32(mount.data(), len, crc);
      }
    }
  } else {
    // A pre-rebalancing fleet: every partition lives under the fleet root.
    manifest.mount_root.clear();
  }
  if (v4) {
    ManifestHeaderV4Ext retention_ext;
    TP_RETURN_NOT_OK(reader.ReadExact(&retention_ext, sizeof(retention_ext)));
    crc = Crc32(&retention_ext, sizeof(retention_ext), crc);
    manifest.retention.enabled = retention_ext.retention_enabled != 0;
    manifest.retention.max_generations = retention_ext.max_generations;
    manifest.retention.max_retained_ticks = retention_ext.max_retained_ticks;
  } else {
    // A pre-history fleet: resumes with retention off.
    manifest.retention = RetentionPolicy{};
  }
  uint32_t stored;
  TP_RETURN_NOT_OK(reader.ReadExact(&stored, sizeof(stored)));
  if (stored != crc) {
    return Status::Corruption("fleet manifest " + path + " fails its CRC");
  }
  TP_RETURN_NOT_OK(ValidateManifest(manifest, path));
  if (header.disk_organization !=
      static_cast<uint32_t>(GetTraits(manifest.algorithm).disk)) {
    return Status::Corruption(
        "fleet manifest " + path +
        " records a disk organization inconsistent with its algorithm");
  }
  return manifest;
}

std::vector<uint64_t> ListFleetManifestEpochs(const std::string& root) {
  std::vector<uint64_t> epochs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    uint64_t epoch = 0;
    if (paths::ParseFleetManifestFileName(entry.path().filename().string(),
                                          &epoch)) {
      epochs.push_back(epoch);
    }
  }
  std::sort(epochs.rbegin(), epochs.rend());
  return epochs;
}

StatusOr<FleetManifest> ReadNewestFleetManifest(const std::string& root) {
  const std::vector<uint64_t> epochs = ListFleetManifestEpochs(root);
  if (epochs.empty()) {
    return Status::NotFound("no fleet manifest under " + root +
                            " (not a fleet root, or created before the "
                            "manifest was introduced)");
  }
  Status newest_error = Status::OK();
  for (const uint64_t epoch : epochs) {
    auto manifest_or =
        ReadFleetManifestFile(paths::FleetManifestPath(root, epoch));
    if (manifest_or.ok()) return manifest_or;
    if (manifest_or.status().code() == StatusCode::kFailedPrecondition) {
      // Future-version fleet: refusing is the only safe answer; silently
      // recovering an older epoch would resurrect a pre-upgrade topology.
      return manifest_or.status();
    }
    if (newest_error.ok()) newest_error = manifest_or.status();
    // Torn/corrupt: fall back to the previous epoch (the crash window
    // between an interrupted epoch commit and its retirement).
  }
  return newest_error;
}

Status RetireFleetManifestsBefore(const std::string& root, uint64_t epoch) {
  for (const uint64_t found : ListFleetManifestEpochs(root)) {
    if (found < epoch) {
      TP_RETURN_NOT_OK(
          RemoveFileIfExists(paths::FleetManifestPath(root, found)));
    }
  }
  // Also sweep manifest temp files: a crash inside WriteFleetManifest
  // (before its rename) orphans fleet-manifest-<E>.bin.tmp, which the
  // epoch scan above cannot see. Any tmp present when a retirement runs
  // is stale -- the single-process commit protocol never retires while a
  // write is in flight.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr char kTmpSuffix[] = ".tmp";
    constexpr size_t kTmpSuffixLen = sizeof(kTmpSuffix) - 1;
    if (name.size() <= kTmpSuffixLen ||
        name.compare(name.size() - kTmpSuffixLen, kTmpSuffixLen,
                     kTmpSuffix) != 0) {
      continue;
    }
    uint64_t tmp_epoch = 0;
    if (paths::ParseFleetManifestFileName(
            name.substr(0, name.size() - kTmpSuffixLen), &tmp_epoch)) {
      TP_RETURN_NOT_OK(RemoveFileIfExists(entry.path().string()));
    }
  }
  return Status::OK();
}

}  // namespace tickpoint
