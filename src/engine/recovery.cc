#include "engine/recovery.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "engine/checkpoint_store.h"
#include "engine/consistent_cut.h"
#include "engine/logical_log.h"
#include "engine/paths.h"
#include "engine/sharded_engine.h"
#include "util/io.h"

namespace tickpoint {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The one per-shard recovery body: recovers through tick `bound`, exactly
/// when the bound is finite; UINT64_MAX = latest (the durable end).
StatusOr<RecoveryResult> RecoverShard(const EngineConfig& config,
                                      uint64_t bound, StateTable* out) {
  TP_CHECK(out->layout().num_objects() == config.layout.num_objects());
  const bool exact = bound != UINT64_MAX;
  const uint64_t max_image_tick = exact ? bound + 1 : UINT64_MAX;
  const std::string live_log = Engine::LogicalLogPath(config.dir);
  RecoveryResult result;
  out->Clear();

  // Phase 1: the base image, the newest consistent no later than
  // max_image_tick. A double-backup image is chosen by its header; the log
  // store rejects generations past the bound by their headers and restores
  // the newest that qualifies. Recovery only reads: a checkpoint a crash
  // interrupted left an invalid header, so the sibling wins.
  const auto restore_start = Clock::now();
  const bool log_organization =
      GetTraits(config.algorithm).disk == DiskOrganization::kLog;
  if (!log_organization) {
    std::unique_ptr<BackupStore> backup;
    TP_ASSIGN_OR_RETURN(backup, BackupStore::Open(config.dir, config.layout,
                                                  config.fsync,
                                                  /*backend=*/nullptr,
                                                  /*writable=*/false));
    int backup_index = -1;
    for (int index = 0; index < 2; ++index) {
      TP_ASSIGN_OR_RETURN(const ImageInfo info, backup->Inspect(index));
      if (info.valid && info.consistent_tick <= max_image_tick &&
          (backup_index < 0 || info.seq > result.image_seq)) {
        backup_index = index;
        result.image_seq = info.seq;
        result.image_consistent_ticks = info.consistent_tick;
      }
    }
    result.restored_from_checkpoint = backup_index >= 0;
    if (backup_index >= 0) TP_RETURN_NOT_OK(backup->ReadAll(backup_index, out));
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

  // History joins the chain only on the log organization, the one that
  // retains it, and only when an exact target lies before what the live
  // sources cover: the live log (truncated at the last resume) starts
  // after the live base. A newer retained generation then replaces the
  // live base, and the archived segments replay ahead of the live log. No
  // or torn history leaves the live chain and its verdict.
  std::vector<std::string> sources;
  StatusOr<HistoryIndex> index_or = Status::NotFound("history not needed");
  if (log_organization && exact &&
      result.image_consistent_ticks != max_image_tick) {
    TP_ASSIGN_OR_RETURN(const uint64_t live_first,
                        LogicalLog::FirstTick(live_log));
    if (live_first > result.image_consistent_ticks) {
      index_or = ShardHistory::ReadIndex(config.dir);
    }
  }
  if (index_or.ok()) {
    const HistoryIndex::Generation* base = nullptr;
    for (const auto& g : index_or.value().generations) {
      if (g.consistent_tick <= max_image_tick) base = &g;
    }
    if (base != nullptr &&
        (!result.restored_from_checkpoint ||
         base->consistent_tick > result.image_consistent_ticks)) {
      TP_ASSIGN_OR_RETURN(
          result.image_consistent_ticks,
          ShardHistory::LoadGeneration(config.dir, *base, out));
      result.restored_from_checkpoint = true;
      result.image_seq = base->seq;
    }
    for (const auto& segment : index_or.value().segments) {
      const std::string path = paths::HistoryDir(config.dir) + "/" +
                               paths::HistorySegmentFileName(segment.id);
      if (FileExists(path)) sources.push_back(path);
    }
  }
  result.restore_seconds = SecondsSince(restore_start);

  // Phase 2: replay the sources in order through the bound. Every tick
  // appends one record, so an applied run's first tick is
  // last + 1 - applied, and it must continue where the chain stands.
  const auto replay_start = Clock::now();
  sources.push_back(live_log);
  uint64_t reached = result.image_consistent_ticks;
  for (const std::string& source : sources) {
    TP_ASSIGN_OR_RETURN(const LogicalLog::ReplayStats stats,
                        LogicalLog::Replay(source, reached, bound, out));
    if (stats.records_applied == 0) continue;
    const uint64_t first = stats.last_tick + 1 - stats.records_applied;
    if (first != reached) {
      return Status::Corruption(source + " continues at tick " +
                                std::to_string(first) + ", not at tick " +
                                std::to_string(reached));
    }
    reached = stats.last_tick + 1;
    result.ticks_replayed += stats.records_applied;
  }
  result.replay_seconds = SecondsSince(replay_start);
  result.recovered_ticks = reached;
  if (exact && reached != max_image_tick) {
    return Status::Corruption(
        "durable state in " + config.dir + " reaches tick " +
        std::to_string(reached) + ", not the target tick " +
        std::to_string(max_image_tick));
  }
  return result;
}

/// Reads the newest intact fleet manifest and verifies that the directory
/// of every partition it assigns exists.
StatusOr<FleetManifest> ReadManifestForRecovery(const std::string& root) {
  TP_ASSIGN_OR_RETURN(FleetManifest manifest, ReadNewestFleetManifest(root));
  for (uint32_t p = 0; p < manifest.config.num_shards; ++p) {
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

/// Recovers every partition through `bound` into (*out)[p] from its
/// assignment- and mount-resolved directory. Shards share no files or
/// tables, so up to hardware_concurrency() workers recover them in
/// parallel, each building (and page-faulting) the tables of the shards
/// it recovers. Outcomes fold in partition order: the lowest failing
/// partition's status is returned, the one a serial loop would stop at.
StatusOr<ShardedRecoveryResult> RecoverShards(const FleetManifest& manifest,
                                              const std::string& root,
                                              uint64_t bound,
                                              std::vector<StateTable>* out) {
  const EngineConfig shard = manifest.config.shard;
  const uint32_t num_shards = manifest.config.num_shards;
  out->clear();
  std::vector<std::optional<StateTable>> tables(num_shards);
  std::vector<StatusOr<RecoveryResult>> outcomes(
      num_shards, Status::Internal("shard not recovered"));
  std::atomic<uint32_t> next{0};
  auto work = [&] {
    for (uint32_t i = next.fetch_add(1); i < num_shards;
         i = next.fetch_add(1)) {
      EngineConfig shard_config = shard;
      shard_config.dir = manifest.PartitionDir(root, i);
      outcomes[i] =
          RecoverShard(shard_config, bound, &tables[i].emplace(shard.layout));
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
        std::max(result.max_recovered_ticks, recovered);
    result.shards.push_back(shard_result);
  }
  return result;
}

}  // namespace

StatusOr<RecoveryResult> Recover(const EngineConfig& config,
                                 StateTable* out) {
  return RecoverShard(config, UINT64_MAX, out);
}

StatusOr<RecoveryResult> RecoverToTick(const EngineConfig& config,
                                       uint64_t tick, StateTable* out) {
  return RecoverShard(config, tick, out);
}

StatusOr<FleetRecoveryResult> RecoverFleetTo(const std::string& root,
                                             const RecoveryTarget& target,
                                             std::vector<StateTable>* out) {
  FleetRecoveryResult result;
  result.target = target;
  TP_ASSIGN_OR_RETURN(result.manifest, ReadManifestForRecovery(root));
  uint64_t bound =
      target.kind == RecoveryTarget::Kind::kTick ? target.tick : UINT64_MAX;
  if (target.kind == RecoveryTarget::Kind::kCut) {
    auto cut_or = ReadCutManifest(root);
    if (cut_or.ok()) {
      if (cut_or.value().shards.size() != result.manifest.config.num_shards) {
        // A committed cut that disagrees with the fleet geometry is a
        // misconfiguration, not a missing cut.
        return Status::InvalidArgument(
            "cut manifest in " + root + " records " +
            std::to_string(cut_or.value().shards.size()) +
            " shards, the fleet has " +
            std::to_string(result.manifest.config.num_shards));
      }
      bound = cut_or.value().cut_tick;
    } else if (cut_or.status().code() == StatusCode::kNotFound ||
               cut_or.status().code() == StatusCode::kCorruption) {
      // No committed cut: never cut, a crash before the commit rename, or
      // a torn manifest.
      result.fallback = cut_or.status();
    } else {
      return cut_or.status();
    }
  }
  if (bound != UINT64_MAX) {
    auto fleet_or = RecoverShards(result.manifest, root, bound, out);
    if (fleet_or.ok()) {
      result.landed = true;
      result.cut_tick = bound;
      result.fleet = std::move(fleet_or).value();
      return result;
    }
    if (fleet_or.status().code() != StatusCode::kCorruption) {
      return fleet_or.status();
    }
    // Some shard cannot reproduce the target (outside its retained window,
    // a log a resume truncated, torn history). All or nothing: the whole
    // fleet recovers to latest rather than mixing timelines.
    result.fallback = fleet_or.status();
  }
  TP_ASSIGN_OR_RETURN(result.fleet,
                      RecoverShards(result.manifest, root, UINT64_MAX, out));
  return result;
}

StatusOr<HistoryWindow> RestorableFleetWindow(const std::string& root) {
  TP_ASSIGN_OR_RETURN(const FleetManifest manifest,
                      ReadManifestForRecovery(root));
  HistoryWindow window;
  for (uint32_t p = 0; p < manifest.config.num_shards; ++p) {
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
