#include "engine/checkpoint_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "engine/paths.h"
#include "util/crc32.h"

namespace tickpoint {
namespace {

constexpr uint64_t kBackupMagic = 0x544B505442414B31ULL;   // "TKPTBAK1"
constexpr uint64_t kSegmentMagic = 0x544B505453454731ULL;  // "TKPTSEG1"

struct BackupHeader {
  uint64_t magic = 0;
  uint32_t version = 1;
  uint32_t pad = 0;
  uint64_t seq = 0;
  uint64_t consistent_tick = 0;
  uint64_t num_objects = 0;
  uint64_t object_size = 0;
  uint32_t state_crc = 0;
  uint32_t header_crc = 0;  // CRC of all preceding fields

  uint32_t ComputeCrc() const {
    return Crc32(this, offsetof(BackupHeader, header_crc));
  }
};
static_assert(sizeof(BackupHeader) == 56);

struct SegmentHeader {
  uint64_t magic = 0;
  uint64_t seq = 0;
  uint64_t consistent_tick = 0;
  uint64_t object_count = 0;
  uint32_t full_flush = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(SegmentHeader) == 40);

constexpr uint64_t kBackupDataOffset = 512;  // header block, sector aligned

/// Read size of LogStore restores and scans: large enough that the
/// checksum, not the syscalls, sets the pace.
constexpr uint64_t kRestoreBlockBytes = uint64_t{1} << 20;

}  // namespace

// ---------------------------------------------------------------- Backup --

Status BackupStore::MakeDurable(int index) {
  // fds have no userspace buffer, so the fsync-disabled mode (tests) needs
  // no flush for readers to see the bytes.
  return fsync_enabled_ ? files_[index].Sync() : Status::OK();
}

BackupStore::BackupStore(const StateLayout& layout, bool fsync_enabled)
    : layout_(layout), fsync_enabled_(fsync_enabled) {}

std::string BackupStore::ImageFileName(int index) {
  TP_CHECK(index == 0 || index == 1);
  return paths::BackupImageFileName(index);
}

StatusOr<std::unique_ptr<BackupStore>> BackupStore::Open(
    const std::string& dir, const StateLayout& layout, bool fsync_enabled,
    IoBackend* backend, bool writable) {
  std::unique_ptr<BackupStore> store(new BackupStore(layout, fsync_enabled));
  for (int i = 0; i < 2; ++i) {
    store->paths_[i] = dir + "/" + ImageFileName(i);
  }
  if (backend != nullptr) {
    store->backend_ = backend;
  } else {
    store->owned_backend_ = IoBackend::Create(IoBackendKind::kSync);
    store->backend_ = store->owned_backend_.get();
  }
  if (!writable) return store;
  TP_RETURN_NOT_OK(EnsureDirectory(dir));
  // The header protocol alone guards against torn writes; a doublewrite
  // region an older version staged here is dead weight.
  TP_RETURN_NOT_OK(
      RemoveFileIfExists(dir + "/" + paths::DoublewriteFileName()));
  for (int i = 0; i < 2; ++i) {
    TP_RETURN_NOT_OK(store->files_[i].OpenForUpdate(store->paths_[i]));
  }
  return store;
}

const std::string& BackupStore::path(int index) const {
  TP_CHECK(index == 0 || index == 1);
  return paths_[index];
}

bool BackupStore::TakeCrashPoint(StageCrashPoint point) {
  if (stage_crash_point_ != point) return false;
  stage_crash_point_ = StageCrashPoint::kNone;
  (void)backend_->Drain();  // what was submitted lands; nothing else does
  return true;
}

Status BackupStore::BeginCheckpoint(int index) {
  TP_CHECK(index == 0 || index == 1);
  BackupHeader zero;
  zero.magic = 0;  // invalid
  TP_RETURN_NOT_OK(files_[index].WriteAt(0, &zero, sizeof(zero)));
  TP_RETURN_NOT_OK(MakeDurable(index));
  if (TakeCrashPoint(StageCrashPoint::kAfterBegin)) {
    return Status::Internal("crash injected after header invalidate");
  }
  return Status::OK();
}

StatusOr<IoTicket> BackupStore::WriteRange(int index, ObjectId first,
                                           const void* data, uint64_t count) {
  TP_CHECK(index == 0 || index == 1);
  TP_DCHECK(first + count <= layout_.num_objects());
  const uint64_t offset = kBackupDataOffset + first * layout_.object_size;
  const IoTicket ticket = backend_->SubmitWrite(&files_[index], offset, data,
                                                count * layout_.object_size);
  if (TakeCrashPoint(StageCrashPoint::kAfterFirstRun)) {
    return Status::Internal("crash injected after first in-place run");
  }
  return ticket;
}

Status BackupStore::FinishCheckpoint(int index, uint64_t seq,
                                     uint64_t consistent_tick,
                                     uint32_t state_crc) {
  TP_CHECK(index == 0 || index == 1);
  TP_RETURN_NOT_OK(backend_->Drain());
  TP_RETURN_NOT_OK(MakeDurable(index));  // data durable first
  if (TakeCrashPoint(StageCrashPoint::kAfterDataSync)) {
    return Status::Internal("crash injected before header commit");
  }
  BackupHeader header;
  header.magic = kBackupMagic;
  header.seq = seq;
  header.consistent_tick = consistent_tick;
  header.num_objects = layout_.num_objects();
  header.object_size = layout_.object_size;
  header.state_crc = state_crc;
  header.header_crc = header.ComputeCrc();
  TP_RETURN_NOT_OK(files_[index].WriteAt(0, &header, sizeof(header)));
  TP_RETURN_NOT_OK(MakeDurable(index));
  return Status::OK();
}

StatusOr<ImageInfo> BackupStore::Inspect(int index) {
  TP_CHECK(index == 0 || index == 1);
  ImageInfo info;
  if (!FileExists(paths_[index])) return info;
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(paths_[index]));
  TP_ASSIGN_OR_RETURN(const uint64_t size, reader.Size());
  if (size < sizeof(BackupHeader)) return info;  // empty/new file: invalid
  BackupHeader header;
  TP_RETURN_NOT_OK(reader.ReadExact(&header, sizeof(header)));
  if (header.magic != kBackupMagic) return info;
  if (header.header_crc != header.ComputeCrc()) return info;
  if (header.num_objects != layout_.num_objects() ||
      header.object_size != layout_.object_size) {
    return Status::Corruption("backup layout mismatch in " + paths_[index]);
  }
  if (size < kBackupDataOffset + layout_.num_objects() * layout_.object_size) {
    return info;  // truncated data region
  }
  info.valid = true;
  info.seq = header.seq;
  info.consistent_tick = header.consistent_tick;
  info.state_crc = header.state_crc;
  return info;
}

Status BackupStore::ReadAll(int index, StateTable* out) {
  TP_CHECK(out->layout().num_objects() == layout_.num_objects());
  TP_ASSIGN_OR_RETURN(const ImageInfo info, Inspect(index));
  if (!info.valid) {
    return Status::FailedPrecondition("backup " + paths_[index] +
                                      " holds no valid image");
  }
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(paths_[index]));
  TP_RETURN_NOT_OK(reader.ReadAt(kBackupDataOffset, out->mutable_data(),
                                 out->buffer_bytes()));
  if (info.state_crc != 0 && out->Digest() != info.state_crc) {
    return Status::Corruption("state CRC mismatch restoring " + paths_[index]);
  }
  return Status::OK();
}

// ------------------------------------------------------------------- Log --

Status LogStore::MakeDurable(FileWriter* writer) {
  return fsync_enabled_ ? writer->Sync() : writer->Flush();
}

LogStore::LogStore(std::string dir, const StateLayout& layout,
                   bool fsync_enabled)
    : dir_(std::move(dir)), layout_(layout), fsync_enabled_(fsync_enabled) {}

bool LogStore::ParseGenerationFileName(const std::string& name,
                                       uint64_t* gen) {
  return paths::ParseLogGenerationFileName(name, gen);
}

StatusOr<std::unique_ptr<LogStore>> LogStore::Open(const std::string& dir,
                                                   const StateLayout& layout,
                                                   bool fsync_enabled) {
  std::unique_ptr<LogStore> store(new LogStore(dir, layout, fsync_enabled));
  // Discover generations left by a previous process (recovery reopens the
  // store cold).
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t gen = 0;
    if (!ParseGenerationFileName(entry.path().filename().string(), &gen)) {
      continue;
    }
    store->current_gen_ = std::max(store->current_gen_, gen);
    store->found_disk_generations_ = true;
  }
  return store;
}

std::string LogStore::GenPath(uint64_t gen) const {
  return dir_ + "/" + paths::LogGenerationFileName(gen);
}

Status LogStore::BeginGeneration(uint64_t gen) {
  TP_CHECK(!segment_open_);
  TP_RETURN_NOT_OK(EnsureDirectory(dir_));
  if (writer_.is_open()) {
    TP_RETURN_NOT_OK(writer_.Close());
  }
  FileWriter truncate;  // a fresh generation starts empty
  TP_RETURN_NOT_OK(truncate.Open(GenPath(gen)));
  TP_RETURN_NOT_OK(truncate.Close());
  TP_RETURN_NOT_OK(writer_.OpenForUpdate(GenPath(gen)));
  current_gen_ = gen;
  gen_open_ = true;
  append_offset_ = 0;
  return Status::OK();
}

Status LogStore::BeginSegment(uint64_t seq, uint64_t consistent_tick,
                              bool full_flush, uint64_t object_count) {
  TP_CHECK(gen_open_ && !segment_open_);
  SegmentHeader header;
  header.magic = kSegmentMagic;
  header.seq = seq;
  header.consistent_tick = consistent_tick;
  header.object_count = object_count;
  header.full_flush = full_flush ? 1 : 0;
  TP_RETURN_NOT_OK(writer_.WriteAt(append_offset_, &header, sizeof(header)));
  segment_crc_ = Crc32(&header, sizeof(header));
  segment_open_ = true;
  segment_objects_declared_ = object_count;
  segment_objects_written_ = 0;
  return Status::OK();
}

Status LogStore::AppendObject(ObjectId object, const void* data) {
  TP_CHECK(segment_open_);
  TP_CHECK(segment_objects_written_ < segment_objects_declared_);
  const uint64_t id = object;
  TP_RETURN_NOT_OK(writer_.Append(&id, sizeof(id)));
  TP_RETURN_NOT_OK(writer_.Append(data, layout_.object_size));
  segment_crc_ = Crc32(&id, sizeof(id), segment_crc_);
  segment_crc_ = Crc32(data, layout_.object_size, segment_crc_);
  ++segment_objects_written_;
  return Status::OK();
}

Status LogStore::AppendRun(ObjectId first, const void* data, uint64_t count) {
  TP_CHECK(segment_open_);
  TP_CHECK(segment_objects_written_ + count <= segment_objects_declared_);
  const uint64_t record_bytes = sizeof(uint64_t) + layout_.object_size;
  run_buf_.resize(count * record_bytes);
  const uint8_t* src = static_cast<const uint8_t*>(data);
  uint8_t* dst = run_buf_.data();
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t id = first + i;
    std::memcpy(dst, &id, sizeof(id));
    std::memcpy(dst + sizeof(id), src, layout_.object_size);
    dst += record_bytes;
    src += layout_.object_size;
  }
  TP_RETURN_NOT_OK(writer_.Append(run_buf_.data(), run_buf_.size()));
  segment_crc_ = Crc32(run_buf_.data(), run_buf_.size(), segment_crc_);
  segment_objects_written_ += count;
  return Status::OK();
}

Status LogStore::CommitSegment() {
  TP_CHECK(segment_open_);
  TP_CHECK(segment_objects_written_ == segment_objects_declared_);
  TP_RETURN_NOT_OK(writer_.Append(&segment_crc_, sizeof(segment_crc_)));
  TP_RETURN_NOT_OK(MakeDurable(&writer_));
  append_offset_ += sizeof(SegmentHeader) +
                    segment_objects_written_ *
                        (sizeof(uint64_t) + layout_.object_size) +
                    sizeof(uint32_t);
  segment_open_ = false;
  return Status::OK();
}

void LogStore::AbortSegment() { segment_open_ = false; }

Status LogStore::DropGenerationsBefore(uint64_t gen) {
  // Generations advance one at a time; sweeping a small window behind the
  // current one keeps the directory clean without a full listing.
  for (uint64_t g = gen >= 8 ? gen - 8 : 0; g < gen; ++g) {
    TP_RETURN_NOT_OK(RemoveFileIfExists(GenPath(g)));
  }
  return Status::OK();
}

Status LogStore::DropAllGenerationsBefore(uint64_t gen) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    uint64_t g = 0;
    if (!ParseGenerationFileName(entry.path().filename().string(), &g)) {
      continue;
    }
    if (g < gen) {
      TP_RETURN_NOT_OK(RemoveFileIfExists(entry.path().string()));
    }
  }
  if (ec) {
    return Status::IOError("list " + dir_ + ": " + ec.message());
  }
  return Status::OK();
}

StatusOr<std::vector<SegmentInfo>> LogStore::ListSegments(uint64_t gen) {
  return ScanGeneration(gen, nullptr);
}

StatusOr<ImageInfo> LogStore::Restore(StateTable* out,
                                      uint64_t max_consistent_tick) {
  TP_CHECK(out->layout().num_objects() == layout_.num_objects());
  // The newest generation with an intact full flush no newer than the
  // bound wins. A rejected generation may have applied records before its
  // corruption showed; the next candidate's full flush overwrites them.
  for (uint64_t gen = current_gen_ + 1; gen-- > 0;) {
    if (!FileExists(GenPath(gen))) continue;
    auto applied_or = ScanGeneration(gen, out, max_consistent_tick);
    if (!applied_or.ok() || applied_or->empty()) continue;
    // Report the newest segment applied (within the bound).
    const SegmentInfo& newest = applied_or->back();
    ImageInfo info;
    info.valid = true;
    info.seq = newest.seq;
    info.consistent_tick = newest.consistent_tick;
    return info;
  }
  out->Clear();
  return Status::NotFound("no recoverable log generation in " + dir_);
}

StatusOr<std::vector<SegmentInfo>> LogStore::ScanGeneration(
    uint64_t gen, StateTable* out, uint64_t max_consistent_tick) {
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(GenPath(gen)));
  TP_ASSIGN_OR_RETURN(const uint64_t file_size, reader.Size());
  const uint64_t record_bytes = sizeof(uint64_t) + layout_.object_size;
  // One bounded buffer serves every segment: whole records only, so the
  // id of each record sits at a fixed stride inside a block.
  const uint64_t block_records =
      std::max<uint64_t>(1, kRestoreBlockBytes / record_bytes);
  const uint64_t block_bytes = block_records * record_bytes;
  std::unique_ptr<uint8_t[]> block(new uint8_t[block_bytes]);
  std::vector<SegmentInfo> segments;
  uint64_t offset = 0;
  while (offset + sizeof(SegmentHeader) + sizeof(uint32_t) <= file_size) {
    SegmentHeader header;
    TP_RETURN_NOT_OK(reader.ReadAt(offset, &header, sizeof(header)));
    if (header.magic != kSegmentMagic) break;
    const uint64_t body_limit =
        file_size - offset - sizeof(SegmentHeader) - sizeof(uint32_t);
    if (header.object_count > body_limit / record_bytes) break;  // torn tail
    const uint64_t records_bytes = header.object_count * record_bytes;
    if (out != nullptr) {
      if (segments.empty() &&
          (header.full_flush == 0 ||
           header.object_count != layout_.num_objects() ||
           header.consistent_tick > max_consistent_tick)) {
        // Incomplete or past-the-bound full flush: the generation cannot
        // restore anything, and the header alone says so.
        break;
      }
      // Segments are appended in tick order: the rest are past the bound.
      if (header.consistent_tick > max_consistent_tick) break;
    }
    // Pass 1: checksum the whole segment before applying any of it, noting
    // the largest object id on the way.
    uint32_t crc = Crc32(&header, sizeof(header));
    uint64_t max_id = 0;
    for (uint64_t done = 0; done < records_bytes;) {
      const uint64_t n = std::min(block_bytes, records_bytes - done);
      TP_RETURN_NOT_OK(reader.ReadExact(block.get(), n));
      crc = Crc32(block.get(), n, crc);
      for (uint64_t r = 0; r < n; r += record_bytes) {
        uint64_t id;
        std::memcpy(&id, block.get() + r, sizeof(id));
        max_id = std::max(max_id, id);
      }
      done += n;
    }
    uint32_t stored;
    TP_RETURN_NOT_OK(reader.ReadExact(&stored, sizeof(stored)));
    // Uncommitted or corrupt: like any torn tail, the scan ends here.
    if (stored != crc) break;
    // Only a checksummed segment's ids are trusted enough to reject on.
    if (max_id >= layout_.num_objects()) {
      return Status::Corruption("object id out of range in " + GenPath(gen));
    }
    // Pass 2: apply, straight from the block when the segment fit in one,
    // else re-reading it block by block.
    if (out != nullptr) {
      const uint64_t records_offset = offset + sizeof(SegmentHeader);
      for (uint64_t done = 0; done < records_bytes;) {
        const uint64_t n = std::min(block_bytes, records_bytes - done);
        if (records_bytes > block_bytes) {
          TP_RETURN_NOT_OK(
              reader.ReadAt(records_offset + done, block.get(), n));
        }
        for (uint64_t r = 0; r < n; r += record_bytes) {
          uint64_t id;
          std::memcpy(&id, block.get() + r, sizeof(id));
          out->LoadObject(id, block.get() + r + sizeof(id));
        }
        done += n;
      }
    }
    SegmentInfo info;
    info.seq = header.seq;
    info.consistent_tick = header.consistent_tick;
    info.object_count = header.object_count;
    info.full_flush = header.full_flush != 0;
    segments.push_back(info);
    offset += sizeof(SegmentHeader) + records_bytes + sizeof(uint32_t);
  }
  return segments;
}

}  // namespace tickpoint
