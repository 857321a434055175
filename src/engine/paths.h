// Single owner of every on-disk name the fleet writes or scans: shard
// directories, checkpoint images, log generations, the logical log, and
// the cut/fleet manifests. Engine, the checkpoint stores, recovery, and
// the manifests all delegate here, so the writer of a file and the scanner
// that must find it again after a crash can never drift apart.
#ifndef TICKPOINT_ENGINE_PATHS_H_
#define TICKPOINT_ENGINE_PATHS_H_

#include <cstdint>
#include <cstdlib>
#include <string>

namespace tickpoint {
namespace paths {

/// Checkpoint/log directory of shard slot `slot` under the fleet root.
inline std::string ShardDir(const std::string& root, uint32_t slot) {
  return root + "/shard-" + std::to_string(slot);
}

/// Checkpoint/log directory of shard slot `slot`, honouring an optional
/// mount-point override: an empty `mount` keeps the slot under the fleet
/// root, a non-empty one relocates the whole shard directory to that path
/// (a different disk). The manifest records the override per partition, so
/// the writer and every post-crash scanner resolve the same directory.
inline std::string SlotDir(const std::string& root, const std::string& mount,
                           uint32_t slot) {
  return ShardDir(mount.empty() ? root : mount, slot);
}

/// True if the bare directory name `name` is a shard slot ("shard-N"),
/// storing N in *slot.
inline bool ParseShardDirName(const std::string& name, uint32_t* slot) {
  if (name.rfind("shard-", 0) != 0) return false;
  const char* digits = name.c_str() + 6;
  if (*digits == '\0') return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(digits, &end, 10);
  if (end == digits || *end != '\0') return false;
  *slot = static_cast<uint32_t>(parsed);
  return true;
}

/// The logical (redo) log of one engine directory.
inline std::string LogicalLogPath(const std::string& dir) {
  return dir + "/logical.log";
}

/// Bare filename of double-backup image `index` ("backup0.img").
inline std::string BackupImageFileName(int index) {
  return "backup" + std::to_string(index) + ".img";
}

/// Bare filename of the doublewrite region older versions staged beside
/// the backup images. Nothing reads it any more; writable opens delete it.
inline std::string DoublewriteFileName() { return "doublewrite.img"; }

/// Bare filename of checkpoint-log generation `gen` ("log-N.img").
inline std::string LogGenerationFileName(uint64_t gen) {
  return "log-" + std::to_string(gen) + ".img";
}

/// True if the bare filename `name` is a generation file, storing N in
/// *gen.
inline bool ParseLogGenerationFileName(const std::string& name,
                                       uint64_t* gen) {
  if (name.rfind("log-", 0) != 0) return false;
  if (name.find(".img") == std::string::npos) return false;
  *gen = std::strtoull(name.c_str() + 4, nullptr, 10);
  return true;
}

/// Bare name of the per-shard history directory (checkpoint generations,
/// archived logical-log segments, and the CRC'd history index).
inline std::string HistoryDirName() { return "history"; }

/// The history directory of one engine directory.
inline std::string HistoryDir(const std::string& dir) {
  return dir + "/" + HistoryDirName();
}

/// The CRC'd history index inside a shard's history directory. The index
/// is the source of truth: files it does not reference are orphans from an
/// interrupted archival and are swept on the next writable open.
inline std::string HistoryIndexPath(const std::string& dir) {
  return HistoryDir(dir) + "/index.bin";
}

/// Bare filename of retained checkpoint generation `seq` ("gen-N.img").
inline std::string HistoryGenerationFileName(uint64_t seq) {
  return "gen-" + std::to_string(seq) + ".img";
}

/// True if the bare filename `name` is a history generation image, storing
/// its sequence number in *seq.
inline bool ParseHistoryGenerationFileName(const std::string& name,
                                           uint64_t* seq) {
  if (name.rfind("gen-", 0) != 0) return false;
  const char* digits = name.c_str() + 4;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(digits, &end, 10);
  if (end == digits || std::string(end) != ".img") return false;
  *seq = parsed;
  return true;
}

/// Bare filename of archived logical-log segment `id` ("seg-N.log"). The
/// segment body is byte-identical to the live logical.log record format,
/// so LogicalLog::Replay works on archived history unchanged.
inline std::string HistorySegmentFileName(uint64_t id) {
  return "seg-" + std::to_string(id) + ".log";
}

/// True if the bare filename `name` is an archived logical-log segment,
/// storing its id in *id.
inline bool ParseHistorySegmentFileName(const std::string& name,
                                        uint64_t* id) {
  if (name.rfind("seg-", 0) != 0) return false;
  const char* digits = name.c_str() + 4;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(digits, &end, 10);
  if (end == digits || std::string(end) != ".log") return false;
  *id = parsed;
  return true;
}

/// The committed consistent-cut manifest under the fleet root.
inline std::string CutManifestPath(const std::string& root) {
  return root + "/cut-manifest.bin";
}

/// Bare filename of the fleet manifest for `epoch`
/// ("fleet-manifest-N.bin").
inline std::string FleetManifestFileName(uint64_t epoch) {
  return "fleet-manifest-" + std::to_string(epoch) + ".bin";
}

/// The fleet manifest (superblock) for `epoch` under the fleet root.
inline std::string FleetManifestPath(const std::string& root,
                                     uint64_t epoch) {
  return root + "/" + FleetManifestFileName(epoch);
}

/// True if the bare filename `name` is a fleet manifest, storing its epoch
/// in *epoch.
inline bool ParseFleetManifestFileName(const std::string& name,
                                       uint64_t* epoch) {
  constexpr char kPrefix[] = "fleet-manifest-";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.rfind(kPrefix, 0) != 0) return false;
  const char* digits = name.c_str() + kPrefixLen;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(digits, &end, 10);
  if (end == digits || std::string(end) != ".bin") return false;
  *epoch = parsed;
  return true;
}

}  // namespace paths
}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_PATHS_H_
