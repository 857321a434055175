// The real in-memory game state: a contiguous, cache-line-aligned buffer of
// atomic objects, addressed either by cell (4-byte attribute) or by atomic
// object (512-byte checkpoint unit).
#ifndef TICKPOINT_ENGINE_STATE_TABLE_H_
#define TICKPOINT_ENGINE_STATE_TABLE_H_

#include <cstdint>
#include <cstring>
#include <memory>

#include "model/layout.h"
#include "util/status.h"

namespace tickpoint {

/// Main-memory state table. Not internally synchronized: the engine
/// coordinates mutator/writer access through per-object locks.
class StateTable {
 public:
  explicit StateTable(const StateLayout& layout);

  const StateLayout& layout() const { return layout_; }
  uint64_t num_objects() const { return layout_.num_objects(); }
  /// Buffer size: num_objects * object_size (the tail object is padded).
  uint64_t buffer_bytes() const { return buffer_bytes_; }

  int32_t ReadCell(CellId cell) const {
    TP_DCHECK(cell < layout_.num_cells());
    int32_t value;
    std::memcpy(&value, data_.get() + cell * sizeof(int32_t), sizeof(value));
    return value;
  }

  void WriteCell(CellId cell, int32_t value) {
    TP_DCHECK(cell < layout_.num_cells());
    std::memcpy(data_.get() + cell * sizeof(int32_t), &value, sizeof(value));
  }

  const uint8_t* ObjectData(ObjectId object) const {
    TP_DCHECK(object < num_objects());
    return data_.get() + object * layout_.object_size;
  }

  uint8_t* MutableObjectData(ObjectId object) {
    TP_DCHECK(object < num_objects());
    return data_.get() + object * layout_.object_size;
  }

  /// memcpy of one atomic object into `dst` (object_size bytes).
  void CopyObjectTo(ObjectId object, void* dst) const {
    std::memcpy(dst, ObjectData(object), layout_.object_size);
  }

  /// Overwrites one atomic object from `src` (object_size bytes).
  void LoadObject(ObjectId object, const void* src) {
    std::memcpy(MutableObjectData(object), src, layout_.object_size);
  }

  const uint8_t* data() const { return data_.get(); }
  uint8_t* mutable_data() { return data_.get(); }

  /// CRC32 of the whole buffer -- the state fingerprint used by recovery
  /// tests to prove restored == reference.
  uint32_t Digest() const;

  /// Byte-compare against another table with identical layout.
  bool ContentEquals(const StateTable& other) const;

  /// Zeroes the buffer.
  void Clear();

 private:
  /// Hands a buffer back to the process-wide free list of its size
  /// (state_table.cc) instead of to malloc.
  struct Recycle {
    uint64_t bytes;
    void operator()(uint8_t* p) const;
  };

  StateLayout layout_;
  uint64_t buffer_bytes_;
  // 64-byte aligned so object copies never split cache lines.
  std::unique_ptr<uint8_t[], Recycle> data_;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_STATE_TABLE_H_
