#include "engine/recovery.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>
#include <utility>

#include "engine/checkpoint_store.h"
#include "engine/consistent_cut.h"
#include "engine/history.h"
#include "engine/logical_log.h"
#include "engine/paths.h"
#include "util/io.h"

namespace tickpoint {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

namespace {

/// Shared two-phase recovery body: restores the newest image whose
/// consistent tick does not exceed `up_to_tick` + 1, then replays the
/// logical log from the image boundary through `up_to_tick`.
/// UINT64_MAX = unbounded (plain crash recovery); a finite bound is cut
/// recovery rewinding past newer checkpoints.
StatusOr<RecoveryResult> RecoverImpl(const EngineConfig& config,
                                     uint64_t up_to_tick, StateTable* out) {
  TP_CHECK(out->layout().num_objects() == config.layout.num_objects());
  const AlgorithmTraits& traits = GetTraits(config.algorithm);
  const uint64_t max_image_tick =
      up_to_tick == UINT64_MAX ? UINT64_MAX : up_to_tick + 1;
  RecoveryResult result;
  out->Clear();

  // Phase 1: restore the newest complete checkpoint image within the
  // bound. Recovery only reads: a checkpoint a crash interrupted left its
  // image with an invalid header, so the sibling wins.
  const auto restore_start = Clock::now();
  if (traits.disk == DiskOrganization::kDoubleBackup) {
    TP_ASSIGN_OR_RETURN(
        auto store, BackupStore::Open(config.dir, config.layout, config.fsync,
                                      /*backend=*/nullptr,
                                      /*writable=*/false));
    int best = -1;
    ImageInfo best_info;
    for (int index = 0; index < 2; ++index) {
      TP_ASSIGN_OR_RETURN(const ImageInfo info, store->Inspect(index));
      if (info.valid && info.consistent_tick <= max_image_tick &&
          (best < 0 || info.seq > best_info.seq)) {
        best = index;
        best_info = info;
      }
    }
    if (best >= 0) {
      TP_RETURN_NOT_OK(store->ReadAll(best, out));
      result.restored_from_checkpoint = true;
      result.image_seq = best_info.seq;
      result.image_consistent_ticks = best_info.consistent_tick;
    }
  } else {
    TP_ASSIGN_OR_RETURN(
        auto store, LogStore::Open(config.dir, config.layout, config.fsync));
    auto image_or = store->Restore(out, max_image_tick);
    if (image_or.ok()) {
      result.restored_from_checkpoint = true;
      result.image_seq = image_or.value().seq;
      result.image_consistent_ticks = image_or.value().consistent_tick;
    } else if (image_or.status().code() != StatusCode::kNotFound) {
      return image_or.status();
    }
  }
  result.restore_seconds = SecondsSince(restore_start);

  // Phase 2: replay the logical log from the image boundary to the bound
  // (or the durable end).
  const auto replay_start = Clock::now();
  const std::string log_path = Engine::LogicalLogPath(config.dir);
  TP_ASSIGN_OR_RETURN(
      const LogicalLog::ReplayStats stats,
      LogicalLog::Replay(log_path, result.image_consistent_ticks, up_to_tick,
                         out));
  result.replay_seconds = SecondsSince(replay_start);
  result.ticks_replayed = stats.records_applied;
  result.recovered_ticks = stats.records_applied > 0
                               ? stats.last_tick + 1
                               : result.image_consistent_ticks;
  return result;
}

}  // namespace

StatusOr<RecoveryResult> Recover(const EngineConfig& config,
                                 StateTable* out) {
  return RecoverImpl(config, UINT64_MAX, out);
}

namespace {

/// Recovers one shard (config.dir is its directory) into `out`.
using ShardRecoverFn =
    std::function<StatusOr<RecoveryResult>(const EngineConfig&, StateTable*)>;

/// The per-partition fan-out behind every fleet recovery: partition p
/// recovers from `dirs[p]` (the manifest's assignment- and mount-resolved
/// directory) into (*out)[p]. Shards share no files or tables, so up to
/// hardware_concurrency() workers recover them in parallel, each building
/// (and page-faulting) the tables of the shards it recovers. Outcomes fold
/// in shard order: the lowest failing shard's status is returned, exactly
/// the one a serial loop would have stopped at.
StatusOr<ShardedRecoveryResult> RecoverShards(
    const ShardedEngineConfig& config, const std::vector<std::string>& dirs,
    std::vector<StateTable>* out, const ShardRecoverFn& recover) {
  const uint32_t num_shards = config.num_shards;
  out->clear();
  std::vector<std::optional<StateTable>> tables(num_shards);
  std::vector<StatusOr<RecoveryResult>> outcomes(
      num_shards, Status::Internal("shard not recovered"));
  std::atomic<uint32_t> next{0};
  auto work = [&] {
    for (uint32_t i = next.fetch_add(1); i < num_shards;
         i = next.fetch_add(1)) {
      EngineConfig shard_config = config.shard;
      shard_config.dir = dirs[i];
      StateTable& table = tables[i].emplace(config.shard.layout);
      outcomes[i] = recover(shard_config, &table);
    }
  };
  const uint32_t workers =
      std::min(num_shards, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> helpers;
  for (uint32_t w = 1; w < workers; ++w) helpers.emplace_back(work);
  work();
  for (std::thread& helper : helpers) helper.join();
  out->reserve(num_shards);
  for (std::optional<StateTable>& table : tables) {
    out->push_back(std::move(*table));
  }

  ShardedRecoveryResult result;
  result.shards.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    if (!outcomes[i].ok()) return outcomes[i].status();
    const RecoveryResult& shard_result = outcomes[i].value();
    result.restore_seconds += shard_result.restore_seconds;
    result.replay_seconds += shard_result.replay_seconds;
    const uint64_t recovered = shard_result.recovered_ticks;
    result.min_recovered_ticks =
        i == 0 ? recovered : std::min(result.min_recovered_ticks, recovered);
    result.max_recovered_ticks =
        i == 0 ? recovered : std::max(result.max_recovered_ticks, recovered);
    result.shards.push_back(shard_result);
  }
  return result;
}

}  // namespace

StatusOr<RecoveryResult> RecoverToTick(const EngineConfig& config,
                                       uint64_t cut_tick, StateTable* out) {
  TP_ASSIGN_OR_RETURN(const RecoveryResult result,
                      RecoverImpl(config, cut_tick, out));
  // Exactness guards on top of the shared body: the replayed range must
  // butt against the restored image (no gap -- every tick appends one
  // logical record, so applied records are consecutive and their first
  // tick is recovered_ticks - ticks_replayed) and must actually reach the
  // cut.
  if (result.ticks_replayed > 0 &&
      result.recovered_ticks - result.ticks_replayed >
          result.image_consistent_ticks) {
    return Status::Corruption(
        "logical log in " + config.dir + " starts at tick " +
        std::to_string(result.recovered_ticks - result.ticks_replayed) +
        ", after the restored image (" +
        std::to_string(result.image_consistent_ticks) + ")");
  }
  if (result.recovered_ticks != cut_tick + 1) {
    return Status::Corruption(
        "durable state in " + config.dir + " reaches tick " +
        std::to_string(result.recovered_ticks) + ", not the cut tick " +
        std::to_string(cut_tick + 1));
  }
  return result;
}

namespace {

/// Shared cut-recovery body, parameterized by per-partition directories.
StatusOr<ShardedCutRecoveryResult> RecoverPartitionsToCutImpl(
    const ShardedEngineConfig& config, const std::vector<std::string>& dirs,
    std::vector<StateTable>* out) {
  ShardedCutRecoveryResult result;
  auto manifest_or = ReadCutManifest(config.shard.dir);
  if (!manifest_or.ok()) {
    const StatusCode code = manifest_or.status().code();
    // NotFound: the coordinator never committed (including a crash between
    // the last shard ack and the commit rename). Corruption: the manifest
    // is torn. Both mean "no committed cut" -- fall back to per-shard
    // exact recovery. Anything else is a real I/O failure.
    if (code != StatusCode::kNotFound && code != StatusCode::kCorruption) {
      return manifest_or.status();
    }
  }
  if (!manifest_or.ok()) {
    TP_ASSIGN_OR_RETURN(result.fleet,
                        RecoverShards(config, dirs, out, Recover));
    return result;
  }
  const CutManifest& manifest = manifest_or.value();
  if (manifest.shards.size() != config.num_shards) {
    // A committed manifest that disagrees with the fleet geometry is a
    // misconfiguration, not a missing cut: surface it instead of silently
    // recovering a partial fleet.
    return Status::InvalidArgument(
        "cut manifest in " + config.shard.dir + " records " +
        std::to_string(manifest.shards.size()) + " shards, config expects " +
        std::to_string(config.num_shards));
  }
  const uint64_t cut_tick = manifest.cut_tick;
  auto fleet_or = RecoverShards(
      config, dirs, out,
      [cut_tick](const EngineConfig& shard_config, StateTable* table) {
        return RecoverToTick(shard_config, cut_tick, table);
      });
  if (!fleet_or.ok()) {
    if (fleet_or.status().code() != StatusCode::kCorruption) {
      return fleet_or.status();
    }
    // The manifest is committed but its cut is no longer reproducible
    // from some shard's durable sources -- e.g. a death during a fleet
    // resume after that shard's bootstrap truncated the logical log the
    // (older) cut depended on. Same treatment as a torn manifest:
    // per-shard exact fallback (clears and refills `out`).
    TP_ASSIGN_OR_RETURN(result.fleet,
                        RecoverShards(config, dirs, out, Recover));
    return result;
  }
  result.used_manifest = true;
  result.cut_tick = cut_tick;
  result.fleet = std::move(fleet_or).value();
  return result;
}

/// Shared manifest-reading front half of RecoverFleet/RecoverFleetToCut:
/// reads the newest intact manifest and verifies the directory layout it
/// describes actually exists.
StatusOr<FleetManifest> ReadManifestForRecovery(const std::string& root) {
  TP_ASSIGN_OR_RETURN(FleetManifest manifest, ReadNewestFleetManifest(root));
  for (uint32_t p = 0; p < manifest.num_partitions; ++p) {
    const std::string dir = manifest.PartitionDir(root, p);
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) {
      // The superblock and the directory tree disagree: surface it as
      // corruption instead of "recovering" partition p to zeroed state
      // from a directory that is not there.
      return Status::Corruption(
          "fleet manifest (epoch " + std::to_string(manifest.epoch) +
          ") assigns partition " + std::to_string(p) + " to " + dir +
          ", which does not exist");
    }
  }
  return manifest;
}

/// Assignment- and mount-resolved directory of every partition.
std::vector<std::string> PartitionDirs(const FleetManifest& manifest,
                                       const std::string& root) {
  std::vector<std::string> dirs;
  dirs.reserve(manifest.num_partitions);
  for (uint32_t p = 0; p < manifest.num_partitions; ++p) {
    dirs.push_back(manifest.PartitionDir(root, p));
  }
  return dirs;
}

}  // namespace

StatusOr<FleetRecoveryOutcome> RecoverFleet(const std::string& root,
                                            std::vector<StateTable>* out) {
  FleetRecoveryOutcome outcome;
  TP_ASSIGN_OR_RETURN(outcome.manifest, ReadManifestForRecovery(root));
  const ShardedEngineConfig config = ConfigFromManifest(outcome.manifest,
                                                        root);
  auto fleet_or = RecoverShards(
      config, PartitionDirs(outcome.manifest, root), out, Recover);
  if (!fleet_or.ok()) return fleet_or.status();
  outcome.result.fleet = std::move(fleet_or).value();
  return outcome;
}

StatusOr<FleetRecoveryOutcome> RecoverFleetToCut(
    const std::string& root, std::vector<StateTable>* out) {
  FleetRecoveryOutcome outcome;
  TP_ASSIGN_OR_RETURN(outcome.manifest, ReadManifestForRecovery(root));
  const ShardedEngineConfig config = ConfigFromManifest(outcome.manifest,
                                                        root);
  auto cut_or = RecoverPartitionsToCutImpl(
      config, PartitionDirs(outcome.manifest, root), out);
  if (!cut_or.ok()) return cut_or.status();
  outcome.result = std::move(cut_or).value();
  return outcome;
}

StatusOr<RecoveryResult> RecoverToHistoricTick(const EngineConfig& config,
                                               uint64_t tick,
                                               StateTable* out) {
  // The live stores reproduce any tick from the newest image's consistent
  // tick to the crash tick; history exists for everything older. Try live
  // first -- it is exact when it works, and its Corruption is precisely
  // "this tick predates what the live sources cover".
  auto live_or = RecoverToTick(config, tick, out);
  if (live_or.ok()) return live_or;
  if (live_or.status().code() != StatusCode::kCorruption) return live_or;
  const Status live_error = live_or.status();

  auto index_or = ShardHistory::ReadIndex(config.dir);
  if (!index_or.ok()) return live_error;  // no/torn history: live's verdict
  const HistoryIndex index = std::move(index_or).value();

  // Newest retained generation consistent no later than tick + 1.
  const HistoryIndex::Generation* base = nullptr;
  for (const auto& g : index.generations) {
    if (g.consistent_tick <= tick + 1) base = &g;
  }
  if (base == nullptr) {
    return Status::Corruption(
        "no retained generation in " + config.dir +
        " is consistent at or before tick " + std::to_string(tick));
  }

  RecoveryResult result;
  out->Clear();
  const auto restore_start = Clock::now();
  TP_ASSIGN_OR_RETURN(
      const uint64_t consistent,
      ShardHistory::ReadGenerationImage(config.dir, base->seq, out));
  result.restored_from_checkpoint = true;
  result.image_seq = base->seq;
  result.image_consistent_ticks = consistent;
  result.restore_seconds = SecondsSince(restore_start);

  // Replay archived segments (ascending), then the live log, through
  // `tick`. Every applied run must butt against what is already recovered:
  // ticks append one record each, so a source's first applied tick is
  // (last + 1 - applied).
  const auto replay_start = Clock::now();
  uint64_t expected = consistent;
  std::vector<std::string> sources;
  for (const auto& seg : index.segments) {
    sources.push_back(paths::HistoryDir(config.dir) + "/" +
                      paths::HistorySegmentFileName(seg.id));
  }
  sources.push_back(Engine::LogicalLogPath(config.dir));
  for (const std::string& source : sources) {
    if (!FileExists(source)) continue;
    TP_ASSIGN_OR_RETURN(const LogicalLog::ReplayStats stats,
                        LogicalLog::Replay(source, expected, tick, out));
    if (stats.records_applied == 0) continue;
    const uint64_t first = stats.last_tick + 1 - stats.records_applied;
    if (first > expected) {
      return Status::Corruption("history of " + config.dir +
                                " has a logical gap before tick " +
                                std::to_string(first));
    }
    expected = stats.last_tick + 1;
    result.ticks_replayed += stats.records_applied;
  }
  result.replay_seconds = SecondsSince(replay_start);
  result.recovered_ticks = expected;
  if (expected != tick + 1) {
    return Status::Corruption(
        "retained history in " + config.dir + " reaches tick " +
        std::to_string(expected) + ", not the requested tick " +
        std::to_string(tick + 1));
  }
  return result;
}

StatusOr<FleetRecoveryOutcome> RecoverFleetToTick(
    const std::string& root, uint64_t tick, std::vector<StateTable>* out) {
  FleetRecoveryOutcome outcome;
  TP_ASSIGN_OR_RETURN(outcome.manifest, ReadManifestForRecovery(root));
  const ShardedEngineConfig config = ConfigFromManifest(outcome.manifest,
                                                        root);
  const std::vector<std::string> dirs = PartitionDirs(outcome.manifest, root);
  auto fleet_or = RecoverShards(
      config, dirs, out,
      [tick](const EngineConfig& shard_config, StateTable* table) {
        return RecoverToHistoricTick(shard_config, tick, table);
      });
  if (!fleet_or.ok()) {
    if (fleet_or.status().code() != StatusCode::kCorruption) {
      return fleet_or.status();
    }
    // Some shard cannot reproduce the tick (outside its retained window,
    // or its history is torn). All-or-nothing: fall back to per-shard
    // latest recovery (clears and refills `out`) rather than mixing
    // timelines across shards.
    TP_ASSIGN_OR_RETURN(outcome.result.fleet,
                        RecoverShards(config, dirs, out, Recover));
    return outcome;
  }
  outcome.result.used_manifest = true;
  outcome.result.cut_tick = tick;
  outcome.result.fleet = std::move(fleet_or).value();
  return outcome;
}

StatusOr<HistoryWindow> RestorableFleetWindow(const std::string& root) {
  TP_ASSIGN_OR_RETURN(const FleetManifest manifest,
                      ReadManifestForRecovery(root));
  HistoryWindow window;
  for (uint32_t p = 0; p < manifest.num_partitions; ++p) {
    const std::string dir = manifest.PartitionDir(root, p);
    auto index_or = ShardHistory::ReadIndex(dir);
    if (!index_or.ok()) {
      const StatusCode code = index_or.status().code();
      // No/torn history on any shard: the fleet advertises no window.
      if (code == StatusCode::kNotFound || code == StatusCode::kCorruption) {
        return HistoryWindow{};
      }
      return index_or.status();
    }
    TP_ASSIGN_OR_RETURN(
        const HistoryWindow shard,
        ShardHistory::ComputeWindow(dir, index_or.value()));
    if (!shard.any) return HistoryWindow{};
    if (!window.any) {
      window = shard;
    } else {
      window.low_tick = std::max(window.low_tick, shard.low_tick);
      window.high_tick = std::min(window.high_tick, shard.high_tick);
      if (window.low_tick > window.high_tick) return HistoryWindow{};
    }
  }
  return window;
}

}  // namespace tickpoint
