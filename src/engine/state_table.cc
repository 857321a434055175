#include "engine/state_table.h"

#include <cstdlib>

#include "util/crc32.h"

namespace tickpoint {

StateTable::StateTable(const StateLayout& layout)
    : layout_(layout),
      buffer_bytes_(layout.num_objects() * layout.object_size) {
  TP_CHECK(layout_.Valid());
  TP_CHECK(layout_.cell_size == sizeof(int32_t));
  void* raw = nullptr;
  const int rc = ::posix_memalign(&raw, 64, buffer_bytes_);
  TP_CHECK(rc == 0 && raw != nullptr);
  data_.reset(static_cast<uint8_t*>(raw));
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
