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
/// The one on-disk format. A file carrying any other version is refused,
/// not reinterpreted: its layout may differ anywhere after the version.
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

/// The replication extension, written (and CRC'd) immediately after
/// ManifestHeader.
struct ReplicationExt {
  uint64_t replica_depth = 0;
  uint8_t replicate = 0;
  uint8_t reserved[7] = {0, 0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(ReplicationExt) == 16,
              "ReplicationExt must stay padding-free: the CRC covers raw "
              "bytes");

/// The retention extension, written (and CRC'd) after the mount-root
/// strings: the durable form of RetentionPolicy (engine/history.h).
struct RetentionExt {
  uint64_t max_generations = 0;
  uint64_t max_retained_ticks = 0;
  uint8_t retention_enabled = 0;
  uint8_t reserved[7] = {0, 0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(RetentionExt) == 24,
              "RetentionExt must stay padding-free: the CRC covers raw "
              "bytes");

/// Hands out consecutive fixed-size records of a manifest's bytes.
class Cursor {
 public:
  explicit Cursor(const std::string& bytes) : bytes_(bytes) {}
  /// Copies the next `length` bytes to `out`; false when fewer remain.
  bool Take(void* out, size_t length) {
    if (bytes_.size() - pos_ < length) return false;
    std::memcpy(out, bytes_.data() + pos_, length);
    pos_ += length;
    return true;
  }
  size_t pos() const { return pos_; }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

Status ValidateManifest(const FleetManifest& manifest,
                        const std::string& path) {
  const ShardedEngineConfig& config = manifest.config;
  std::unordered_set<uint32_t> slots;
  for (const uint32_t slot : manifest.assignment) {
    if (!slots.insert(slot).second) {
      return Status::Corruption("fleet manifest " + path +
                                " assigns two partitions to shard slot " +
                                std::to_string(slot));
    }
  }
  if (!config.shard.layout.Valid()) {
    return Status::Corruption("fleet manifest " + path +
                              " records an invalid state layout");
  }
  if (config.shard.algorithm > AlgorithmKind::kCopyOnUpdatePartialRedo) {
    return Status::Corruption("fleet manifest " + path +
                              " records an unknown algorithm");
  }
  if (config.replicate) {
    // Structural bounds only (untrusted bytes must not drive out-of-range
    // indexing later); semantic knob validation -- self-peering included --
    // is ShardedEngine::OpenImpl's InvalidArgument, like every other knob.
    if (config.replica_depth == 0) {
      return Status::Corruption("fleet manifest " + path +
                                " enables replication with replica_depth 0");
    }
    for (const uint32_t peer : config.replica_peer) {
      if (peer >= config.num_shards) {
        return Status::Corruption(
            "fleet manifest " + path + " names replica peer " +
            std::to_string(peer) + " beyond its partition count");
      }
    }
  }
  if (!config.shard.retention.Valid()) {
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
  const ShardedEngineConfig& config = manifest.config;
  const EngineConfig& shard = config.shard;
  const uint32_t num_partitions = config.num_shards;
  TP_CHECK(manifest.assignment.size() == num_partitions);
  TP_CHECK(config.replica_peer.size() == num_partitions);
  TP_CHECK(manifest.mount_root.empty() ||
           manifest.mount_root.size() == num_partitions);
  ManifestHeader header;
  header.magic = kFleetMagic;
  header.version = kFleetVersion;
  header.num_partitions = num_partitions;
  header.epoch = manifest.epoch;
  header.rows = shard.layout.rows;
  header.cols = shard.layout.cols;
  header.object_size = shard.layout.object_size;
  header.cell_size = shard.layout.cell_size;
  header.algorithm = static_cast<uint32_t>(shard.algorithm);
  header.disk_organization =
      static_cast<uint32_t>(GetTraits(shard.algorithm).disk);
  header.disk_budget = config.disk_budget;
  header.full_flush_period = shard.full_flush_period;
  header.logical_sync_every = shard.logical_sync_every;
  header.checkpoint_period_ticks = config.checkpoint_period_ticks;
  header.max_queue_ticks = config.max_queue_ticks;
  header.cut_lead_ticks = config.cut_lead_ticks;
  header.fsync = shard.fsync ? 1 : 0;
  header.checksum_state = shard.checksum_state ? 1 : 0;
  header.staggered = config.staggered ? 1 : 0;
  header.adaptive = config.adaptive ? 1 : 0;
  header.threaded = 1;  // a version-4 byte; every fleet is threaded
  ReplicationExt replication;
  replication.replica_depth = config.replica_depth;
  replication.replicate = config.replicate ? 1 : 0;
  RetentionExt retention;
  retention.max_generations = shard.retention.max_generations;
  retention.max_retained_ticks = shard.retention.max_retained_ticks;
  retention.retention_enabled = shard.retention.enabled ? 1 : 0;

  // The record shape is a pure function of K and the mount-root lengths:
  // the peer vector is written even with replication off (the flag gates
  // its meaning), an empty mount_root writes K empty strings, and a
  // disabled retention policy still writes its knobs.
  std::string bytes;
  const auto put = [&bytes](const void* data, size_t length) {
    bytes.append(static_cast<const char*>(data), length);
  };
  put(&header, sizeof(header));
  put(&replication, sizeof(replication));
  const size_t words = num_partitions * sizeof(uint32_t);
  put(manifest.assignment.data(), words);
  put(config.replica_peer.data(), words);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    const std::string mount = manifest.MountRootOf(p);
    TP_CHECK(mount.size() <= kMaxMountRootBytes);
    const uint32_t length = static_cast<uint32_t>(mount.size());
    put(&length, sizeof(length));
    put(mount.data(), length);
  }
  put(&retention, sizeof(retention));
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  put(&crc, sizeof(crc));

  // The rename inside PublishFile is the epoch's commit point. The
  // PREVIOUS epoch's file is untouched here -- retirement is a separate,
  // later step, so a crash in between leaves both epochs readable and
  // recovery picks the newest.
  return PublishFile(paths::FleetManifestPath(root, manifest.epoch), bytes,
                     fsync, "fleet manifest");
}

StatusOr<FleetManifest> ReadFleetManifestFile(const std::string& path) {
  if (!FileExists(path)) {
    return Status::NotFound("no fleet manifest at " + path);
  }
  std::string bytes;
  TP_RETURN_NOT_OK(ReadFileToString(path, &bytes));
  const auto corruption = [&path](const std::string& what) {
    return Status::Corruption("fleet manifest " + path + " " + what);
  };
  Cursor in(bytes);
  ManifestHeader header;
  if (bytes.size() < sizeof(header) + sizeof(uint32_t)) {
    return corruption("is truncated");
  }
  in.Take(&header, sizeof(header));
  if (header.magic != kFleetMagic) return corruption("has a bad magic");
  if (header.version != kFleetVersion) {
    // Deliberately NOT Corruption: recovery must refuse, not fall back to
    // an older epoch, when the fleet was written in another format.
    return Status::FailedPrecondition(
        "fleet manifest " + path + " has format version " +
        std::to_string(header.version) + "; this binary reads only version " +
        std::to_string(kFleetVersion));
  }
  const uint32_t num_partitions = header.num_partitions;
  if (num_partitions == 0 || num_partitions > kMaxPartitions) {
    return corruption("records an implausible partition count " +
                      std::to_string(num_partitions));
  }
  FleetManifest manifest;
  ShardedEngineConfig& config = manifest.config;
  EngineConfig& shard = config.shard;
  manifest.epoch = header.epoch;
  config.num_shards = num_partitions;
  shard.dir = path.substr(0, path.find_last_of('/'));
  shard.layout.rows = header.rows;
  shard.layout.cols = header.cols;
  shard.layout.object_size = header.object_size;
  shard.layout.cell_size = header.cell_size;
  shard.algorithm = static_cast<AlgorithmKind>(header.algorithm);
  shard.full_flush_period = header.full_flush_period;
  shard.logical_sync_every = header.logical_sync_every;
  shard.fsync = header.fsync != 0;
  shard.checksum_state = header.checksum_state != 0;
  config.disk_budget = header.disk_budget;
  config.checkpoint_period_ticks = header.checkpoint_period_ticks;
  config.max_queue_ticks = header.max_queue_ticks;
  config.cut_lead_ticks = header.cut_lead_ticks;
  config.staggered = header.staggered != 0;
  config.adaptive = header.adaptive != 0;
  ReplicationExt replication;
  RetentionExt retention;
  manifest.assignment.resize(num_partitions);
  config.replica_peer.resize(num_partitions);
  manifest.mount_root.resize(num_partitions);
  const size_t words = num_partitions * sizeof(uint32_t);
  bool whole = in.Take(&replication, sizeof(replication)) &&
               in.Take(manifest.assignment.data(), words) &&
               in.Take(config.replica_peer.data(), words);
  for (std::string& mount : manifest.mount_root) {
    uint32_t length = 0;
    whole = whole && in.Take(&length, sizeof(length));
    if (!whole) break;
    if (length > kMaxMountRootBytes) {
      return corruption("records an implausibly long mount root");
    }
    mount.resize(length);
    whole = in.Take(mount.data(), length);
  }
  whole = whole && in.Take(&retention, sizeof(retention));
  const uint32_t crc = Crc32(bytes.data(), in.pos());
  uint32_t stored = 0;
  if (!whole || !in.Take(&stored, sizeof(stored))) {
    return corruption("is truncated");
  }
  if (stored != crc) return corruption("fails its CRC");
  config.replicate = replication.replicate != 0;
  config.replica_depth = replication.replica_depth;
  shard.retention.enabled = retention.retention_enabled != 0;
  shard.retention.max_generations = retention.max_generations;
  shard.retention.max_retained_ticks = retention.max_retained_ticks;
  TP_RETURN_NOT_OK(ValidateManifest(manifest, path));
  if (header.disk_organization !=
      static_cast<uint32_t>(GetTraits(shard.algorithm).disk)) {
    return corruption(
        "records a disk organization inconsistent with its algorithm");
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
                            " (not a fleet root)");
  }
  Status newest_error = Status::OK();
  for (const uint64_t epoch : epochs) {
    auto manifest_or =
        ReadFleetManifestFile(paths::FleetManifestPath(root, epoch));
    if (manifest_or.ok()) return manifest_or;
    if (manifest_or.status().code() == StatusCode::kFailedPrecondition) {
      // A fleet in another format: refusing is the only safe answer;
      // silently recovering an older epoch would resurrect a stale
      // topology.
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
