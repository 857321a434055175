// The fleet manifest: a durable, versioned superblock under the fleet root
// that makes the on-disk fleet SELF-DESCRIBING (the ReStore idea of a
// self-contained recoverable store). It is the fleet's single description:
// the ShardedEngineConfig the fleet was created with (state layout,
// algorithm, K, every engine, scheduler, replication and retention knob)
// plus the topology that changes while it runs -- the epoch and the
// per-partition shard slot and mount root. Fleet::Open/Fleet::Recover take
// only the root directory, instead of trusting the caller to re-supply a
// bit-identical config (the paper's "restarting server knows the crashed
// server's configuration" assumption, which this file retires).
//
// One on-disk format (version 4): a 112-byte header, a 16-byte replication
// extension, the assignment, the replica peers, one length-prefixed mount
// root per partition, a 24-byte retention extension and a CRC. Any other
// version is refused (FailedPrecondition), never read as an older layout.
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

#include "engine/engine.h"
#include "engine/stagger_scheduler.h"
#include "util/status.h"

namespace tickpoint {

/// Sharded-engine construction parameters.
struct ShardedEngineConfig {
  /// Per-shard template. `shard.layout` is the layout of ONE partition and
  /// `shard.dir` the shared root directory; each partition lives in the
  /// shard directory its manifest entry names. Interval fields are
  /// ignored: checkpoint scheduling is owned by the stagger scheduler.
  EngineConfig shard;
  /// K: number of shards sharing the persistence disk.
  uint32_t num_shards = 1;
  /// Ticks between one shard's consecutive checkpoint starts.
  uint64_t checkpoint_period_ticks = 8;
  /// Stagger shard starts by i * period / K (false = synchronized).
  bool staggered = true;
  /// Shards always run on their own mutator threads (see
  /// sharded_engine.h); Create rejects false. Kept only because existing
  /// configs assign it. Written to the manifest as 1, never read back.
  bool threaded = true;
  /// Adaptive stagger: learn measured write times and keep concurrent
  /// flushes at or below `disk_budget` (see StaggerConfig).
  bool adaptive = false;
  uint32_t disk_budget = 1;
  /// Max ticks a shard's mailbox may lag behind the facade before EndTick
  /// blocks (bounds memory under a slow shard).
  uint64_t max_queue_ticks = 64;
  /// How far ahead of the fleet tick RequestConsistentCut places the cut
  /// tick T: enough lead for every shard to reach T in stride instead of
  /// stalling on a barrier.
  uint64_t cut_lead_ticks = 2;
  /// Hot failover: stream every partition's per-tick delta to a peer
  /// shard's in-memory ReplicaBuffer, so FailoverShard can rebuild a
  /// crashed shard from its peer's memory instead of disk. Costs one
  /// extra state-table copy per partition plus a per-tick delta copy.
  bool replicate = false;
  /// Bound on each replica's in-flight tick-delta ring (older batches fold
  /// into its base snapshot; committed cuts trim eagerly).
  uint64_t replica_depth = 32;
  /// replica_peer[p] = partition hosting p's replica. Empty at Create =
  /// the default ring (p + 1) % K, resolved there once; a fleet's manifest
  /// always holds K entries. Entries must be in range and, with
  /// replication on, never self-peered.
  std::vector<uint32_t> replica_peer;

  StaggerConfig ToStaggerConfig() const {
    StaggerConfig config;
    config.num_shards = num_shards;
    config.period_ticks = checkpoint_period_ticks;
    config.staggered = staggered;
    config.adaptive = adaptive;
    config.disk_budget = disk_budget;
    return config;
  }
};

/// Everything the durable superblock records about a fleet.
struct FleetManifest {
  /// Monotonically increasing topology version; bumps on MigratePartition.
  uint64_t epoch = 0;
  /// assignment[p] = shard slot (directory shard-<slot>) hosting partition
  /// p. Identity at Create; diverges through migrations. Slots are
  /// distinct.
  std::vector<uint32_t> assignment;
  /// Per-partition mount-point override: when mount_root[p] is non-empty,
  /// partition p's shard directory lives under that path instead of the
  /// fleet root -- how a migration lands on a different disk. Either empty
  /// (every partition under the fleet root) or exactly K entries.
  std::vector<std::string> mount_root;
  /// The fleet's configuration. Persisted: K, the shard layout, algorithm,
  /// full-flush period, logical-sync cadence, fsync, state checksums,
  /// retention, and every scheduler and replication knob. Not persisted,
  /// and read back as: `shard.dir` = the fleet root, and every other
  /// EngineConfig field at its default.
  ShardedEngineConfig config;

  /// Shard directory of partition `p` per the assignment, honouring the
  /// partition's mount-root override when one is recorded.
  std::string PartitionDir(const std::string& root, uint32_t partition) const;

  /// mount_root[p], or "" when no overrides are recorded.
  std::string MountRootOf(uint32_t partition) const;
};

/// Atomically publishes `manifest` as fleet-manifest-<epoch>.bin under
/// `root`: temp file (fsynced when `fsync` is set), rename, directory
/// fsync. Does NOT retire other epochs -- the caller sequences retirement
/// after the new epoch is durable. `manifest.config.replica_peer` must
/// hold K entries.
Status WriteFleetManifest(const std::string& root,
                          const FleetManifest& manifest, bool fsync);

/// Reads and validates one manifest file. Corruption when torn, bad magic,
/// bad CRC, or self-inconsistent (invalid layout/algorithm, duplicate
/// slots); FailedPrecondition when written by any format version other
/// than this binary's. `config.shard.dir` reads back as the directory
/// holding `path`.
StatusOr<FleetManifest> ReadFleetManifestFile(const std::string& path);

/// Reads the newest usable manifest under `root`: scans for
/// fleet-manifest-*.bin, tries epochs newest-first, and falls back past a
/// torn/corrupt file to the previous epoch (the migration crash window).
/// NotFound when the directory holds no manifest at all; the newest file's
/// own error when every candidate is unreadable; FailedPrecondition stops
/// the scan (a fleet in another format must not be half-recovered from an
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
