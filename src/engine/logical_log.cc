#include "engine/logical_log.h"

#include <algorithm>
#include <filesystem>

#include "util/crc32.h"

namespace tickpoint {
namespace {

constexpr uint32_t kRecordMagic = 0x54504C4Cu;  // "TPLL"

struct RecordHeader {
  uint32_t magic = 0;
  uint32_t count = 0;
  uint64_t tick = 0;
};
static_assert(sizeof(RecordHeader) == 16);

}  // namespace

StatusOr<std::unique_ptr<LogicalLog>> LogicalLog::Create(
    const std::string& path, uint64_t sync_every) {
  TP_CHECK(sync_every >= 1);
  std::unique_ptr<LogicalLog> log(new LogicalLog(sync_every));
  TP_RETURN_NOT_OK(log->writer_.Open(path));
  return log;
}

Status LogicalLog::AppendTick(uint64_t tick,
                              std::span<const CellUpdate> updates) {
  RecordHeader header;
  header.magic = kRecordMagic;
  header.count = static_cast<uint32_t>(updates.size());
  header.tick = tick;
  TP_RETURN_NOT_OK(writer_.Append(&header, sizeof(header)));
  uint32_t crc = Crc32(&header, sizeof(header));
  if (!updates.empty()) {
    TP_RETURN_NOT_OK(
        writer_.Append(updates.data(), updates.size() * sizeof(CellUpdate)));
    crc = Crc32(updates.data(), updates.size() * sizeof(CellUpdate), crc);
  }
  TP_RETURN_NOT_OK(writer_.Append(&crc, sizeof(crc)));
  ++ticks_appended_;
  if (ticks_appended_ % sync_every_ == 0) {
    TP_RETURN_NOT_OK(writer_.Sync());
    MarkSynced();
  } else {
    TP_RETURN_NOT_OK(writer_.Flush());
  }
  return Status::OK();
}

Status LogicalLog::Sync() {
  TP_RETURN_NOT_OK(writer_.Sync());
  MarkSynced();
  return Status::OK();
}

Status LogicalLog::Close() {
  if (!writer_.is_open()) return Status::OK();
  TP_RETURN_NOT_OK(writer_.Sync());
  MarkSynced();
  return writer_.Close();
}

Status LogicalLog::CloseLosingUnsyncedTail() {
  if (!writer_.is_open()) return Status::OK();
  const std::string path = writer_.path();
  const uint64_t total_bytes = writer_.bytes_written();
  TP_RETURN_NOT_OK(writer_.Close());  // plain close: no final sync
  // Keep the synced prefix plus a strict prefix of the next record (a full
  // header and two bytes -- every nonempty record is at least 28 bytes), the
  // torn tail a real crash leaves mid-record.
  const uint64_t unsynced = total_bytes - synced_bytes_;
  const uint64_t keep =
      synced_bytes_ +
      std::min<uint64_t>(unsynced, sizeof(RecordHeader) + 2);
  std::error_code ec;
  std::filesystem::resize_file(path, keep, ec);
  if (ec) {
    return Status::IOError("truncate " + path + ": " + ec.message());
  }
  ticks_appended_ = synced_ticks_;
  return Status::OK();
}

namespace {

// Shared scan loop: visits each intact record in order.
template <typename Visitor>
Status ScanLog(const std::string& path, Visitor visit) {
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(path));
  TP_ASSIGN_OR_RETURN(const uint64_t size, reader.Size());
  uint64_t offset = 0;
  std::vector<CellUpdate> updates;
  while (offset + sizeof(RecordHeader) + sizeof(uint32_t) <= size) {
    RecordHeader header;
    TP_RETURN_NOT_OK(reader.ReadAt(offset, &header, sizeof(header)));
    if (header.magic != kRecordMagic) break;
    const uint64_t record_bytes = sizeof(RecordHeader) +
                                  header.count * sizeof(CellUpdate) +
                                  sizeof(uint32_t);
    if (offset + record_bytes > size) break;  // torn tail
    updates.resize(header.count);
    if (header.count > 0) {
      TP_RETURN_NOT_OK(reader.ReadExact(updates.data(),
                                        header.count * sizeof(CellUpdate)));
    }
    uint32_t stored;
    TP_RETURN_NOT_OK(reader.ReadExact(&stored, sizeof(stored)));
    uint32_t crc = Crc32(&header, sizeof(header));
    if (header.count > 0) {
      crc = Crc32(updates.data(), header.count * sizeof(CellUpdate), crc);
    }
    if (stored != crc) break;  // torn/corrupt tail
    if (!visit(header.tick, updates)) break;
    offset += record_bytes;
  }
  return Status::OK();
}

}  // namespace

StatusOr<LogicalLog::ReplayStats> LogicalLog::Replay(const std::string& path,
                                                     uint64_t from_tick,
                                                     uint64_t up_to_tick,
                                                     StateTable* table) {
  ReplayStats stats;
  Status visit_error;
  TP_RETURN_NOT_OK(ScanLog(
      path, [&](uint64_t tick, const std::vector<CellUpdate>& updates) {
        if (tick > up_to_tick) return false;
        if (tick < from_tick) return true;
        for (const CellUpdate& update : updates) {
          if (update.cell >= table->layout().num_cells()) {
            visit_error =
                Status::Corruption("cell id out of range in logical log");
            return false;
          }
          table->WriteCell(update.cell, update.value);
        }
        ++stats.records_applied;
        stats.last_tick = tick;
        return true;
      }));
  TP_RETURN_NOT_OK(visit_error);
  return stats;
}

StatusOr<uint64_t> LogicalLog::CountDurableTicks(const std::string& path) {
  uint64_t count = 0;
  TP_RETURN_NOT_OK(
      ScanLog(path, [&](uint64_t, const std::vector<CellUpdate>&) {
        ++count;
        return true;
      }));
  return count;
}

StatusOr<LogicalLog::RangeStats> LogicalLog::ScanRange(
    const std::string& path) {
  RangeStats stats;
  TP_RETURN_NOT_OK(
      ScanLog(path, [&](uint64_t tick, const std::vector<CellUpdate>&) {
        if (stats.records == 0) stats.first_tick = tick;
        stats.last_tick = tick;
        ++stats.records;
        return true;
      }));
  return stats;
}

StatusOr<uint64_t> LogicalLog::FirstTick(const std::string& path) {
  uint64_t first = UINT64_MAX;
  TP_RETURN_NOT_OK(
      ScanLog(path, [&](uint64_t tick, const std::vector<CellUpdate>&) {
        first = tick;
        return false;
      }));
  return first;
}

StatusOr<LogicalLog::RangeStats> LogicalLog::CopyRecords(
    const std::string& path, uint64_t from_tick, uint64_t up_to_tick,
    FileWriter* writer) {
  RangeStats stats;
  Status copy_error;
  TP_RETURN_NOT_OK(ScanLog(
      path, [&](uint64_t tick, const std::vector<CellUpdate>& updates) {
        if (tick > up_to_tick) return false;
        if (tick < from_tick) return true;
        RecordHeader header;
        header.magic = kRecordMagic;
        header.count = static_cast<uint32_t>(updates.size());
        header.tick = tick;
        copy_error = writer->Append(&header, sizeof(header));
        if (!copy_error.ok()) return false;
        uint32_t crc = Crc32(&header, sizeof(header));
        if (!updates.empty()) {
          copy_error = writer->Append(updates.data(),
                                      updates.size() * sizeof(CellUpdate));
          if (!copy_error.ok()) return false;
          crc = Crc32(updates.data(), updates.size() * sizeof(CellUpdate),
                      crc);
        }
        copy_error = writer->Append(&crc, sizeof(crc));
        if (!copy_error.ok()) return false;
        if (stats.records == 0) stats.first_tick = tick;
        stats.last_tick = tick;
        ++stats.records;
        return true;
      }));
  TP_RETURN_NOT_OK(copy_error);
  return stats;
}

}  // namespace tickpoint
