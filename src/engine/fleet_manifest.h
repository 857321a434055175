// The fleet manifest: a durable, versioned superblock under the fleet root
// that makes the on-disk fleet SELF-DESCRIBING (the ReStore idea of a
// self-contained recoverable store). It records everything a restarting
// process needs to recover and resume the fleet -- state layout, algorithm,
// disk organization, K, the engine and scheduler knobs, and the per-shard
// partition assignment -- so Fleet::Open/Fleet::Recover take only the root
// directory, instead of trusting the caller to re-supply a bit-identical
// config (the paper's "restarting server knows the crashed server's
// configuration" assumption, which this file retires).
//
// Epochs: the manifest carries a monotonically increasing fleet epoch that
// bumps on every topology change (ShardedEngine::MigratePartition). Each
// epoch is its own file, fleet-manifest-<epoch>.bin, committed with the
// same tmp + rename + directory-fsync idiom as the cut manifest; the old
// epoch's file is retired only AFTER the new one is durable. Recovery
// reads the newest epoch whose manifest is intact, so a crash anywhere in
// the migration commit window lands in a well-defined topology: before the
// new manifest's rename the fleet is still the old epoch, after it the new
// one, and a torn newer file falls back to the previous epoch.
#ifndef TICKPOINT_ENGINE_FLEET_MANIFEST_H_
#define TICKPOINT_ENGINE_FLEET_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "engine/history.h"
#include "model/layout.h"
#include "util/status.h"

namespace tickpoint {

/// Everything the durable superblock records about a fleet.
struct FleetManifest {
  /// Monotonically increasing topology version; bumps on MigratePartition.
  uint64_t epoch = 0;
  /// K: number of state partitions (== number of live engines).
  uint32_t num_partitions = 0;
  /// assignment[p] = shard slot (directory shard-<slot>) hosting partition
  /// p. Identity at Create; diverges through migrations. Slots are
  /// distinct.
  std::vector<uint32_t> assignment;
  /// Per-partition state geometry.
  StateLayout layout;
  /// Checkpoint algorithm (implies the disk organization, which is also
  /// stored explicitly and cross-checked on read).
  AlgorithmKind algorithm = AlgorithmKind::kCopyOnUpdate;
  // Engine knobs a resumed incarnation must reproduce.
  uint64_t full_flush_period = 9;
  uint64_t logical_sync_every = 1;
  bool fsync = true;
  bool checksum_state = false;
  // Fleet/scheduler knobs.
  uint64_t checkpoint_period_ticks = 8;
  bool staggered = true;
  bool adaptive = false;
  uint32_t disk_budget = 1;
  bool threaded = true;
  uint64_t max_queue_ticks = 64;
  uint64_t cut_lead_ticks = 2;
  // Replication / hot failover (format v2). The manifest carries the
  // active-replica designation durably, so a restarted fleet rebuilds the
  // same replication topology and FailoverShard keeps working across a
  // fleet restart. Manifests written by format v1 read back with
  // `replicate` false.
  bool replicate = false;
  /// Bound on each replica buffer's in-flight tick-delta ring.
  uint64_t replica_depth = 32;
  /// Active-replica designation: replica_peer[p] = the partition whose
  /// runner hosts partition p's in-memory replica. Resolved (never empty)
  /// in a v2 manifest; meaningful only when `replicate` is set.
  std::vector<uint32_t> replica_peer;
  /// Per-partition mount-point override (format v3): when mount_root[p] is
  /// non-empty, partition p's shard directory lives under that path
  /// instead of the fleet root -- how a migration lands on a different
  /// disk. Either empty (every partition under the fleet root; what v1/v2
  /// files read back as) or exactly num_partitions entries.
  std::vector<std::string> mount_root;
  /// History retention (format v4): the point-in-time recovery window
  /// every shard keeps (checkpoint generations + archived logical-log
  /// segments, engine/history.h). Durable in the manifest so the writer
  /// that archives and every post-crash reader that restores agree on the
  /// window. v1-v3 files read back with retention off.
  RetentionPolicy retention;
  // Conversions to/from ShardedEngineConfig live in sharded_engine.h
  // (ManifestFromConfig / ConfigFromManifest) to keep this header free of
  // the engine headers.

  /// Shard directory of partition `p` per the assignment, honouring the
  /// partition's mount-root override when one is recorded.
  std::string PartitionDir(const std::string& root, uint32_t partition) const;

  /// mount_root[p], or "" when no overrides are recorded.
  std::string MountRootOf(uint32_t partition) const;
};

/// Atomically publishes `manifest` as fleet-manifest-<epoch>.bin under
/// `root`: temp file (fsynced when `fsync` is set), rename, directory
/// fsync. Does NOT retire other epochs -- the caller sequences retirement
/// after the new epoch is durable.
Status WriteFleetManifest(const std::string& root,
                          const FleetManifest& manifest, bool fsync);

/// Reads and validates one manifest file. Corruption when torn, bad magic,
/// bad CRC, or self-inconsistent (invalid layout/algorithm, duplicate
/// slots); FailedPrecondition when written by a newer format version than
/// this binary understands.
StatusOr<FleetManifest> ReadFleetManifestFile(const std::string& path);

/// Reads the newest usable manifest under `root`: scans for
/// fleet-manifest-*.bin, tries epochs newest-first, and falls back past a
/// torn/corrupt file to the previous epoch (the migration crash window).
/// NotFound when the directory holds no manifest at all; the newest file's
/// own error when every candidate is unreadable; FailedPrecondition stops
/// the scan (a future-version fleet must not be half-recovered from an
/// older epoch).
StatusOr<FleetManifest> ReadNewestFleetManifest(const std::string& root);

/// Epochs of every fleet-manifest file under `root`, descending (for
/// retirement sweeps and tests). Missing directory yields an empty list.
std::vector<uint64_t> ListFleetManifestEpochs(const std::string& root);

/// Deletes every fleet-manifest file with epoch < `epoch` (the retirement
/// half of the epoch-commit protocol; also used wholesale by fresh
/// opens), plus any manifest temp file a crash mid-WriteFleetManifest
/// orphaned.
Status RetireFleetManifestsBefore(const std::string& root, uint64_t epoch);

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_FLEET_MANIFEST_H_
