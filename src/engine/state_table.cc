#include "engine/state_table.h"

#include <cstdlib>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/crc32.h"

namespace tickpoint {
namespace {

// Freed table buffers, by exact size. Recovery, failover and migration
// build and drop whole tables of one size over and over; handing each one
// back to malloc let glibc keep some and map others afresh, so the
// process's resident peak depended on allocation history (down to the
// length of path strings) rather than on how many tables were live. With
// the free list the peak is the high-water mark of live tables per size.
// Never destroyed: tables may die during static destruction, and the
// buffers stay reachable for leak checkers.
struct BufferPool {
  std::mutex mu;
  std::unordered_map<uint64_t, std::vector<uint8_t*>> free;  // guarded by mu
};

BufferPool& Pool() {
  static BufferPool* const pool = new BufferPool;
  return *pool;
}

uint8_t* AcquireBuffer(uint64_t bytes) {
  {
    BufferPool& pool = Pool();
    std::lock_guard<std::mutex> lock(pool.mu);
    std::vector<uint8_t*>& list = pool.free[bytes];
    if (!list.empty()) {
      uint8_t* buffer = list.back();
      list.pop_back();
      return buffer;
    }
  }
  void* raw = nullptr;
  const int rc = ::posix_memalign(&raw, 64, bytes);
  TP_CHECK(rc == 0 && raw != nullptr);
  return static_cast<uint8_t*>(raw);
}

}  // namespace

void StateTable::Recycle::operator()(uint8_t* p) const {
  BufferPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  pool.free[bytes].push_back(p);
}

StateTable::StateTable(const StateLayout& layout)
    : layout_(layout),
      buffer_bytes_(layout.num_objects() * layout.object_size) {
  TP_CHECK(layout_.Valid());
  TP_CHECK(layout_.cell_size == sizeof(int32_t));
  data_ = std::unique_ptr<uint8_t[], Recycle>(AcquireBuffer(buffer_bytes_),
                                              Recycle{buffer_bytes_});
  Clear();
}

uint32_t StateTable::Digest() const {
  return Crc32(data_.get(), buffer_bytes_);
}

bool StateTable::ContentEquals(const StateTable& other) const {
  if (buffer_bytes_ != other.buffer_bytes_) return false;
  return std::memcmp(data_.get(), other.data_.get(), buffer_bytes_) == 0;
}

void StateTable::Clear() { std::memset(data_.get(), 0, buffer_bytes_); }

}  // namespace tickpoint
