#include "engine/history.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <utility>

#include "engine/checkpoint_store.h"
#include "engine/compactor.h"
#include "engine/logical_log.h"
#include "engine/paths.h"
#include "util/crc32.h"
#include "util/io.h"

namespace tickpoint {
namespace {

constexpr uint64_t kIndexMagic = 0x5849545349485054ULL;  // "TPHISTIX"
constexpr uint32_t kIndexVersion = 2;

// index.bin layout: header, generation records, segment records, chained
// CRC32 over everything before it. All structs are padding-free.
struct IndexHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t num_generations = 0;
  uint32_t num_segments = 0;
  uint32_t reserved = 0;
  uint64_t next_generation_seq = 0;
  uint64_t next_segment_id = 0;
  uint64_t compactions_run = 0;
};
static_assert(sizeof(IndexHeader) == 48);

struct GenerationRecord {
  uint64_t seq = 0;
  uint64_t consistent_tick = 0;
  uint64_t bytes = 0;
  uint64_t log_gen = 0;
  uint64_t log_base_tick = 0;
  uint32_t kind = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(GenerationRecord) == 48);

struct SegmentRecord {
  uint64_t id = 0;
  uint64_t first_tick = 0;
  uint64_t last_tick = 0;
  uint64_t bytes = 0;
};
static_assert(sizeof(SegmentRecord) == 32);

std::string SegmentPath(const std::string& shard_dir, uint64_t id) {
  return paths::HistoryDir(shard_dir) + "/" +
         paths::HistorySegmentFileName(id);
}

std::string RetiredLogPath(const std::string& shard_dir, uint64_t log_gen) {
  return paths::HistoryDir(shard_dir) + "/" +
         paths::LogGenerationFileName(log_gen);
}

/// Where LogStore generation `log_gen` lives: history/ once retired, the
/// shard directory while it is still the live generation.
std::string LocateLogGeneration(const std::string& shard_dir,
                                uint64_t log_gen) {
  const std::string retired = RetiredLogPath(shard_dir, log_gen);
  if (FileExists(retired)) return retired;
  return shard_dir + "/" + paths::LogGenerationFileName(log_gen);
}

using Kind = HistoryIndex::Generation::Kind;

Status InjectedCrash() { return Status::Internal("crash injected"); }

/// Replays the history's segments, then the live logical.log, onto `out`
/// from tick `from` up to (not including) tick `to`, and returns the tick
/// reached: `to`, or less where the records stop or leave a gap.
StatusOr<uint64_t> ReplayLogicalLog(const std::string& shard_dir,
                                    const HistoryIndex& index, uint64_t from,
                                    uint64_t to, StateTable* out) {
  std::vector<std::string> sources;
  for (const auto& segment : index.segments) {
    sources.push_back(SegmentPath(shard_dir, segment.id));
  }
  sources.push_back(paths::LogicalLogPath(shard_dir));
  uint64_t reached = from;
  for (const std::string& source : sources) {
    if (reached >= to) break;
    if (!FileExists(source)) continue;
    TP_ASSIGN_OR_RETURN(const LogicalLog::ReplayStats stats,
                        LogicalLog::Replay(source, reached, to - 1, out));
    if (stats.records_applied == 0) continue;
    if (stats.last_tick + 1 - stats.records_applied != reached) break;
    reached = stats.last_tick + 1;
  }
  return reached;
}

}  // namespace

Status CheckRetention(const RetentionPolicy& policy, AlgorithmKind algorithm) {
  if (!policy.Valid()) {
    return Status::InvalidArgument(
        "invalid RetentionPolicy (max_generations must be >= 1)");
  }
  if (policy.enabled && GetTraits(algorithm).disk != DiskOrganization::kLog) {
    return Status::InvalidArgument(
        std::string("retention needs a log-organization algorithm, not ") +
        AlgorithmName(algorithm) +
        " (Copy-on-Update users run kCopyOnUpdatePartialRedo)");
  }
  return Status::OK();
}

uint64_t HistoryIndex::TotalBytes() const {
  uint64_t total = 0;
  std::map<uint64_t, uint64_t> log_files;  // log_gen -> longest prefix
  for (const Generation& g : generations) {
    if (g.kind != Generation::Kind::kLog) continue;  // kZero has no file
    uint64_t& bytes = log_files[g.log_gen];
    bytes = std::max(bytes, g.bytes);
  }
  for (const auto& [log_gen, bytes] : log_files) total += bytes;
  for (const auto& s : segments) total += s.bytes;
  return total;
}

bool HistoryIndex::SharesBase(const Generation& a, const Generation& b) {
  return a.kind == Generation::Kind::kLog &&
         b.kind == Generation::Kind::kLog && a.log_gen == b.log_gen;
}

uint64_t HistoryIndex::Bases() const {
  uint64_t bases = 0;
  for (size_t i = 0; i < generations.size(); ++i) {
    if (i == 0 || !SharesBase(generations[i - 1], generations[i])) ++bases;
  }
  return bases;
}

bool HistoryIndex::ReferencesLog(uint64_t log_gen) const {
  return std::any_of(generations.begin(), generations.end(),
                     [log_gen](const Generation& g) {
                       return g.kind == Generation::Kind::kLog &&
                              g.log_gen == log_gen;
                     });
}

StatusOr<HistoryIndex> ShardHistory::ReadIndex(const std::string& shard_dir) {
  const std::string path = paths::HistoryIndexPath(shard_dir);
  if (!FileExists(path)) {
    return Status::NotFound("no history index under " + shard_dir);
  }
  std::string raw;
  TP_RETURN_NOT_OK(ReadFileToString(path, &raw));
  IndexHeader header;
  if (raw.size() < sizeof(header) + sizeof(uint32_t)) {
    return Status::Corruption("history index " + path + " is truncated");
  }
  std::memcpy(&header, raw.data(), sizeof(header));
  if (header.magic != kIndexMagic) {
    return Status::Corruption("history index " + path + " has a bad magic");
  }
  if (header.version != kIndexVersion) {
    return Status::Corruption("history index " + path +
                              " has unsupported version " +
                              std::to_string(header.version));
  }
  const uint64_t expected =
      sizeof(header) + header.num_generations * sizeof(GenerationRecord) +
      header.num_segments * sizeof(SegmentRecord) + sizeof(uint32_t);
  if (raw.size() != expected) {
    return Status::Corruption("history index " + path + " has " +
                              std::to_string(raw.size()) + " bytes, expected " +
                              std::to_string(expected));
  }
  uint32_t stored;
  std::memcpy(&stored, raw.data() + raw.size() - sizeof(stored),
              sizeof(stored));
  if (stored != Crc32(raw.data(), raw.size() - sizeof(stored))) {
    return Status::Corruption("history index " + path + " fails its CRC");
  }
  HistoryIndex index;
  index.next_generation_seq = header.next_generation_seq;
  index.next_segment_id = header.next_segment_id;
  index.compactions_run = header.compactions_run;
  const char* cursor = raw.data() + sizeof(header);
  index.generations.reserve(header.num_generations);
  for (uint32_t i = 0; i < header.num_generations; ++i) {
    GenerationRecord record;
    std::memcpy(&record, cursor, sizeof(record));
    cursor += sizeof(record);
    if (record.kind != static_cast<uint32_t>(Kind::kLog) &&
        record.kind != static_cast<uint32_t>(Kind::kZero)) {
      return Status::Corruption("history index " + path +
                                " has a generation of unknown kind " +
                                std::to_string(record.kind));
    }
    index.generations.push_back({record.seq, record.consistent_tick,
                                 record.bytes, static_cast<Kind>(record.kind),
                                 record.log_gen, record.log_base_tick});
  }
  index.segments.reserve(header.num_segments);
  for (uint32_t i = 0; i < header.num_segments; ++i) {
    SegmentRecord record;
    std::memcpy(&record, cursor, sizeof(record));
    cursor += sizeof(record);
    index.segments.push_back(
        {record.id, record.first_tick, record.last_tick, record.bytes});
  }
  return index;
}

Status ShardHistory::WriteIndex() {
  std::string raw;
  IndexHeader header;
  header.magic = kIndexMagic;
  header.version = kIndexVersion;
  header.num_generations = static_cast<uint32_t>(index_.generations.size());
  header.num_segments = static_cast<uint32_t>(index_.segments.size());
  header.next_generation_seq = index_.next_generation_seq;
  header.next_segment_id = index_.next_segment_id;
  header.compactions_run = index_.compactions_run;
  raw.append(reinterpret_cast<const char*>(&header), sizeof(header));
  for (const auto& g : index_.generations) {
    GenerationRecord record{g.seq,
                            g.consistent_tick,
                            g.bytes,
                            g.log_gen,
                            g.log_base_tick,
                            static_cast<uint32_t>(g.kind),
                            0};
    raw.append(reinterpret_cast<const char*>(&record), sizeof(record));
  }
  for (const auto& s : index_.segments) {
    SegmentRecord record{s.id, s.first_tick, s.last_tick, s.bytes};
    raw.append(reinterpret_cast<const char*>(&record), sizeof(record));
  }
  const uint32_t crc = Crc32(raw.data(), raw.size());
  raw.append(reinterpret_cast<const char*>(&crc), sizeof(crc));

  const std::string path = paths::HistoryIndexPath(shard_dir_);
  const std::string tmp = path + ".tmp";
  FileWriter writer;
  TP_RETURN_NOT_OK(writer.Open(tmp));
  TP_RETURN_NOT_OK(writer.Append(raw.data(), raw.size()));
  if (fsync_) TP_RETURN_NOT_OK(writer.Sync());
  TP_RETURN_NOT_OK(writer.Close());
  if (TakeCrashPoint(HistoryCrashPoint::kAfterIndexTmp)) {
    return InjectedCrash();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("rename " + tmp + ": " + ec.message());
  }
  if (TakeCrashPoint(HistoryCrashPoint::kAfterIndexRename)) {
    return InjectedCrash();
  }
  if (fsync_) {
    TP_RETURN_NOT_OK(SyncDirectory(paths::HistoryDir(shard_dir_)));
  }
  return Status::OK();
}

Status ShardHistory::SweepOrphans() {
  const std::string dir = paths::HistoryDir(shard_dir_);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t id = 0;
    bool doomed = false;
    if (paths::ParseLogGenerationFileName(name, &id)) {
      doomed = !index_.ReferencesLog(id);
    } else if (paths::ParseHistorySegmentFileName(name, &id)) {
      doomed = std::none_of(index_.segments.begin(), index_.segments.end(),
                            [id](const auto& s) { return s.id == id; });
    } else if (name == "index.bin.tmp") {
      doomed = true;
    }
    if (doomed) {
      TP_RETURN_NOT_OK(RemoveFileIfExists(entry.path().string()));
    }
  }
  if (ec) {
    return Status::IOError("list " + dir + ": " + ec.message());
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardHistory>> ShardHistory::Open(
    const std::string& shard_dir, const StateLayout& layout,
    const RetentionPolicy& policy, bool fsync) {
  std::unique_ptr<ShardHistory> history(
      new ShardHistory(shard_dir, layout, policy, fsync));
  TP_RETURN_NOT_OK(EnsureDirectory(paths::HistoryDir(shard_dir)));
  auto index_or = ReadIndex(shard_dir);
  if (index_or.ok()) {
    history->index_ = std::move(index_or).value();
  } else if (index_or.status().code() == StatusCode::kCorruption) {
    // A torn index means the history is unusable as a whole (the protocol
    // never leaves one behind; this is real partial-write damage). The
    // live stores stay authoritative, so the writer resets the history
    // rather than refusing to open the shard: wipe and restart empty.
    TP_RETURN_NOT_OK(
        RemoveFileIfExists(paths::HistoryIndexPath(shard_dir)));
  } else if (index_or.status().code() != StatusCode::kNotFound) {
    return index_or.status();
  }
  TP_RETURN_NOT_OK(history->SweepOrphans());
  return history;
}

StatusOr<uint64_t> ShardHistory::ReadGenerationImage(
    const std::string& shard_dir, uint64_t seq, StateTable* out) {
  TP_ASSIGN_OR_RETURN(const HistoryIndex index, ReadIndex(shard_dir));
  for (const auto& generation : index.generations) {
    if (generation.seq != seq) continue;
    const uint64_t c = generation.consistent_tick;
    TP_ASSIGN_OR_RETURN(const uint64_t loaded,
                        LoadGeneration(shard_dir, generation, out));
    TP_ASSIGN_OR_RETURN(const uint64_t reached,
                        ReplayLogicalLog(shard_dir, index, loaded, c, out));
    if (reached != c) {
      return Status::Corruption(
          "the logical log of " + shard_dir + " stops at tick " +
          std::to_string(reached) + ", short of history generation " +
          std::to_string(seq) + "'s tick " + std::to_string(c));
    }
    return c;
  }
  return Status::NotFound("history of " + shard_dir + " has no generation " +
                          std::to_string(seq));
}

StatusOr<uint64_t> ShardHistory::LoadGeneration(
    const std::string& shard_dir, const HistoryIndex::Generation& generation,
    StateTable* out) {
  const uint64_t c = generation.consistent_tick;
  if (generation.kind == Kind::kZero) {
    out->Clear();
    return c;
  }
  const std::string path = LocateLogGeneration(shard_dir, generation.log_gen);
  if (!FileExists(path)) {
    return Status::Corruption("history generation " +
                              std::to_string(generation.seq) +
                              " references the missing " + path);
  }
  auto image_or = LogStore::RestoreGenerationFile(path, out, c);
  if (!image_or.ok() && image_or.status().code() != StatusCode::kNotFound &&
      image_or.status().code() != StatusCode::kCorruption) {
    return image_or.status();
  }
  if (!image_or.ok() || image_or->consistent_tick < generation.log_base_tick) {
    return Status::Corruption(path + " does not reach history generation " +
                              std::to_string(generation.seq) + "'s base tick " +
                              std::to_string(generation.log_base_tick));
  }
  return image_or->consistent_tick;
}

StatusOr<HistoryWindow> ShardHistory::ComputeWindow(
    const std::string& shard_dir, const HistoryIndex& index) {
  HistoryWindow window;
  if (index.generations.empty()) return window;

  LogicalLog::RangeStats live;
  const std::string live_path = paths::LogicalLogPath(shard_dir);
  if (FileExists(live_path)) {
    TP_ASSIGN_OR_RETURN(live, LogicalLog::ScanRange(live_path));
  }

  const auto& gens = index.generations;
  const uint64_t newest_tick = gens.back().consistent_tick;
  // Pick the oldest generation from which logical coverage is contiguous
  // through the newest generation; fall back to the newest itself. Every
  // tick in the advertised window is then really restorable -- a group
  // commit that lost the tail can shrink the window but never lie.
  for (size_t base = 0; base < gens.size(); ++base) {
    const uint64_t consistent = gens[base].consistent_tick;
    // Records must bridge what the payload alone does not restore.
    uint64_t expected = gens[base].base_tick();
    for (const auto& seg : index.segments) {
      if (seg.last_tick + 1 <= expected) continue;  // already covered
      if (seg.first_tick > expected) break;         // gap
      expected = seg.last_tick + 1;
    }
    if (live.records > 0 && live.first_tick <= expected &&
        live.last_tick + 1 > expected) {
      expected = live.last_tick + 1;
    }
    // Records cover ticks [consistent, expected).
    if (expected < newest_tick && base + 1 < gens.size()) continue;
    const uint64_t high = std::max(expected, newest_tick);
    if (high == 0) break;  // a tick-0 generation with no records: nothing
    window.any = true;
    window.low_tick = consistent == 0 ? 0 : consistent - 1;
    window.high_tick = high - 1;
    break;
  }
  return window;
}

Status ShardHistory::Append(HistoryIndex::Generation generation) {
  if (!index_.generations.empty() &&
      generation.consistent_tick <= index_.generations.back().consistent_tick) {
    // Re-recording an already-archived point (a crash-retried resume
    // bootstrap) is a no-op; ticks only move forward inside the index.
    return Status::OK();
  }
  generation.seq = index_.next_generation_seq;
  index_.generations.push_back(generation);
  index_.next_generation_seq = generation.seq + 1;
  TP_RETURN_NOT_OK(WriteIndex());
  return Compact(nullptr);
}

Status ShardHistory::RecordLogGeneration(uint64_t log_gen, uint64_t base_tick,
                                         uint64_t consistent_tick,
                                         uint64_t bytes) {
  TP_CHECK(base_tick <= consistent_tick);
  return Append({0, consistent_tick, bytes, Kind::kLog, log_gen, base_tick});
}

Status ShardHistory::RecordZeroGeneration() {
  return Append({0, 0, 0, Kind::kZero, 0, 0});
}

Status ShardHistory::RetireLogGenerations(uint64_t log_gen) {
  bool renamed = false;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(shard_dir_, ec)) {
    uint64_t gen = 0;
    if (!paths::ParseLogGenerationFileName(entry.path().filename().string(),
                                           &gen) ||
        gen >= log_gen) {
      continue;
    }
    if (!index_.ReferencesLog(gen)) {
      TP_RETURN_NOT_OK(RemoveFileIfExists(entry.path().string()));
      continue;
    }
    // The index already names this generation; a reader finds it in
    // either directory, so the rename needs no index change.
    const std::string retired = RetiredLogPath(shard_dir_, gen);
    std::error_code rename_ec;
    std::filesystem::rename(entry.path(), retired, rename_ec);
    if (rename_ec) {
      return Status::IOError("rename " + entry.path().string() + ": " +
                             rename_ec.message());
    }
    renamed = true;
    if (TakeCrashPoint(HistoryCrashPoint::kAfterRetireRename)) {
      return InjectedCrash();
    }
  }
  if (ec) {
    return Status::IOError("list " + shard_dir_ + ": " + ec.message());
  }
  if (fsync_ && renamed) {
    TP_RETURN_NOT_OK(SyncDirectory(paths::HistoryDir(shard_dir_)));
    TP_RETURN_NOT_OK(SyncDirectory(shard_dir_));
  }

  // Cut every retired generation back to its full flush: its increments
  // (and any torn tail) repeat what the logical log holds from the base
  // tick on. Readers scan as far as the file goes, so a crash before or
  // after the cut leaves every record loadable; the pass re-runs on retry.
  const uint64_t full_flush = LogStore::FullFlushBytes(layout_);
  bool cut = false;
  for (auto& g : index_.generations) {
    if (g.kind != Kind::kLog || g.log_gen >= log_gen) continue;
    const std::string path = RetiredLogPath(shard_dir_, g.log_gen);
    std::error_code size_ec;
    const uint64_t size = std::filesystem::file_size(path, size_ec);
    if (!size_ec && size > full_flush) {
      std::filesystem::resize_file(path, full_flush, size_ec);
      if (size_ec) {
        return Status::IOError("truncate " + path + ": " + size_ec.message());
      }
    }
    if (g.bytes > full_flush) {
      g.bytes = full_flush;
      cut = true;
    }
  }
  return cut ? WriteIndex() : Status::OK();
}

Status ShardHistory::ArchiveLiveLog(const std::string& live_log_path,
                                    uint64_t up_to_tick) {
  if (!FileExists(live_log_path)) return Status::OK();
  uint64_t from_tick = 0;
  if (!index_.segments.empty()) {
    const uint64_t last = index_.segments.back().last_tick;
    if (last >= up_to_tick) return Status::OK();  // already archived
    from_tick = last + 1;
  }
  const uint64_t id = index_.next_segment_id;
  const std::string path = SegmentPath(shard_dir_, id);
  FileWriter writer;
  TP_RETURN_NOT_OK(writer.Open(path));
  auto stats_or =
      LogicalLog::CopyRecords(live_log_path, from_tick, up_to_tick, &writer);
  if (!stats_or.ok()) {
    (void)writer.Close();
    return stats_or.status();
  }
  const LogicalLog::RangeStats stats = stats_or.value();
  if (stats.records == 0) {
    // Nothing in range (the live log never reached from_tick): leave no
    // empty segment behind.
    TP_RETURN_NOT_OK(writer.Close());
    return RemoveFileIfExists(path);
  }
  if (fsync_) TP_RETURN_NOT_OK(writer.Sync());
  const uint64_t bytes = writer.bytes_written();
  TP_RETURN_NOT_OK(writer.Close());
  if (TakeCrashPoint(HistoryCrashPoint::kAfterSegmentFile)) {
    return InjectedCrash();
  }
  index_.segments.push_back({id, stats.first_tick, stats.last_tick, bytes});
  index_.next_segment_id = id + 1;
  return WriteIndex();
}

Status ShardHistory::TruncateAbove(uint64_t first_tick) {
  std::vector<std::string> doomed;
  HistoryIndex next = index_;
  bool changed = false;

  // Generations whose consistent tick exceeds the resume point contain
  // effects of the retired timeline.
  next.generations.clear();
  for (const auto& g : index_.generations) {
    if (g.consistent_tick > first_tick) {
      changed = true;
    } else {
      next.generations.push_back(g);
    }
  }

  // Segment records for ticks >= first_tick are the retired future; a
  // straddling segment is rewritten under a new id keeping the prefix.
  next.segments.clear();
  for (const auto& seg : index_.segments) {
    if (seg.last_tick < first_tick) {
      next.segments.push_back(seg);
      continue;
    }
    changed = true;
    doomed.push_back(SegmentPath(shard_dir_, seg.id));
    if (first_tick == 0 || seg.first_tick > first_tick - 1) continue;
    const uint64_t new_id = next.next_segment_id++;
    const std::string new_path = SegmentPath(shard_dir_, new_id);
    FileWriter writer;
    TP_RETURN_NOT_OK(writer.Open(new_path));
    auto stats_or = LogicalLog::CopyRecords(SegmentPath(shard_dir_, seg.id),
                                            seg.first_tick, first_tick - 1,
                                            &writer);
    if (!stats_or.ok()) {
      (void)writer.Close();
      return stats_or.status();
    }
    if (stats_or.value().records == 0) {
      TP_RETURN_NOT_OK(writer.Close());
      TP_RETURN_NOT_OK(RemoveFileIfExists(new_path));
      continue;
    }
    if (fsync_) TP_RETURN_NOT_OK(writer.Sync());
    const uint64_t bytes = writer.bytes_written();
    TP_RETURN_NOT_OK(writer.Close());
    if (TakeCrashPoint(HistoryCrashPoint::kAfterRewriteSegmentFile)) {
      return InjectedCrash();
    }
    next.segments.push_back({new_id, stats_or.value().first_tick,
                             stats_or.value().last_tick, bytes});
  }
  if (!changed) return Status::OK();

  return CommitAndDelete(std::move(next), std::move(doomed));
}

Status ShardHistory::CommitAndDelete(HistoryIndex next,
                                     std::vector<std::string> doomed) {
  // A history log generation dies with its last record; a live one in the
  // shard directory stays with the LogStore until RetireLogGenerations.
  for (const auto& g : index_.generations) {
    if (g.kind == Kind::kLog && !next.ReferencesLog(g.log_gen)) {
      doomed.push_back(RetiredLogPath(shard_dir_, g.log_gen));
    }
  }
  // Index first, deletes second: a crash in between leaves orphans (swept
  // on the next writable open), never dangling references.
  index_ = std::move(next);
  TP_RETURN_NOT_OK(WriteIndex());
  if (TakeCrashPoint(HistoryCrashPoint::kBeforeCompactionDeletes)) {
    return InjectedCrash();
  }
  for (const std::string& path : doomed) {
    TP_RETURN_NOT_OK(RemoveFileIfExists(path));
  }
  return Status::OK();
}

Status ShardHistory::Compact(CompactionStats* stats) {
  const CompactionPlan plan = PlanCompaction(index_, policy_);
  if (stats != nullptr) {
    *stats = CompactionStats{};
    stats->bytes_before = index_.TotalBytes();
    stats->bytes_after = stats->bytes_before;
  }
  if (plan.NoOp()) return Status::OK();

  HistoryIndex next = index_;
  std::vector<std::string> doomed;

  // Rewrite straddling segments first: the new file lands under a fresh
  // id, so the old one stays valid until the index repoints.
  for (uint64_t id : plan.rewrite_segments) {
    auto it = std::find_if(next.segments.begin(), next.segments.end(),
                           [id](const auto& s) { return s.id == id; });
    TP_CHECK(it != next.segments.end());
    const uint64_t new_id = next.next_segment_id++;
    const std::string new_path = SegmentPath(shard_dir_, new_id);
    FileWriter writer;
    TP_RETURN_NOT_OK(writer.Open(new_path));
    auto stats_or =
        LogicalLog::CopyRecords(SegmentPath(shard_dir_, id),
                                plan.window_base, it->last_tick, &writer);
    if (!stats_or.ok()) {
      (void)writer.Close();
      return stats_or.status();
    }
    if (fsync_) TP_RETURN_NOT_OK(writer.Sync());
    const uint64_t bytes = writer.bytes_written();
    TP_RETURN_NOT_OK(writer.Close());
    if (TakeCrashPoint(HistoryCrashPoint::kAfterRewriteSegmentFile)) {
      return InjectedCrash();
    }
    doomed.push_back(SegmentPath(shard_dir_, id));
    if (stats_or.value().records == 0) {
      TP_RETURN_NOT_OK(RemoveFileIfExists(new_path));
      next.segments.erase(it);
    } else {
      *it = {new_id, stats_or.value().first_tick, stats_or.value().last_tick,
             bytes};
    }
  }
  for (uint64_t seq : plan.drop_generations) {
    std::erase_if(next.generations,
                  [seq](const auto& g) { return g.seq == seq; });
  }
  for (uint64_t id : plan.drop_segments) {
    doomed.push_back(SegmentPath(shard_dir_, id));
    std::erase_if(next.segments,
                  [id](const auto& s) { return s.id == id; });
  }
  ++next.compactions_run;
  TP_RETURN_NOT_OK(CommitAndDelete(std::move(next), std::move(doomed)));
  if (stats != nullptr) {
    stats->generations_dropped = plan.drop_generations.size();
    stats->segments_dropped = plan.drop_segments.size();
    stats->segments_rewritten = plan.rewrite_segments.size();
    stats->bytes_after = index_.TotalBytes();
  }
  return Status::OK();
}

}  // namespace tickpoint
